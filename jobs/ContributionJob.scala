package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Fig 5 (as a table): the top-3 ingredients contributing
  * to each region's observed food pairing.
  *
  * Usage: spark-submit --class repro.jobs.ContributionJob repro.jar [scale] [nRand]
  * The signs come from Fig 4 at nRand = 100000, as in the paper.
  */
object ContributionJob {
  def main(args: Array[String]): Unit =
    Job.run("contribution", args) { p =>
      val nRand = args.lift(1).map(_.toInt).getOrElse(100000)
      val signs = Experiments.observedSigns(Experiments.foodPairing(p, nRand))
      println(Experiments.fmtContributors(Experiments.topContributors(p, signs), signs))
    }
}
