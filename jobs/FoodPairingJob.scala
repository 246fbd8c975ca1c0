package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.Experiments
import repro.pipeline.Pipeline

/** Reproduces paper Fig 4 (as a table): food-pairing Z-score of every
  * region against the four randomized-cuisine null models.
  *
  * Usage: spark-submit --class repro.jobs.FoodPairingJob repro.jar [scale] [nRand]
  * The paper uses nRand = 100000.
  */
object FoodPairingJob {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    val nRand = args.lift(1).map(_.toInt).getOrElse(100000)
    val spark = SparkSession.builder.appName("food-pairing").getOrCreate()
    val p = Pipeline.get(spark, scale)

    val rows = Experiments.foodPairing(p, nRand)
    val byKey = rows.map(r => (r.region, r.model) -> r).toMap
    println(s"Food pairing Z-scores (nRand=$nRand):")
    println(Experiments.fmtTable(
      Seq("Region", "Ns_real", "Z_random", "Z_frequency", "Z_category", "Z_freq_cat"),
      Experiments.Table1Order.map { reg =>
        def z(m: String) = Experiments.fmtZ(byKey((reg, m)).z)
        Seq(reg, f"${byKey((reg, "random")).nsReal}%.3f",
            z("random"), z("frequency"), z("category"), z("freq_category"))
      }))
    spark.stop()
  }
}
