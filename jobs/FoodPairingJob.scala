package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Fig 4 (as a table): food-pairing Z-score of every
  * region against the four randomized-cuisine null models.
  *
  * Usage: spark-submit --class repro.jobs.FoodPairingJob repro.jar [scale] [nRand]
  * The paper uses nRand = 100000.
  */
object FoodPairingJob {
  def main(args: Array[String]): Unit =
    Job.run("food-pairing", args) { p =>
      val nRand = args.lift(1).map(_.toInt).getOrElse(100000)
      println(Experiments.fmtFoodPairing(Experiments.foodPairing(p, nRand)))
    }
}
