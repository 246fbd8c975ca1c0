package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.exp.Experiments
import repro.pipeline.Pipeline

/** Reproduces paper Fig 5 (as a table): the top-3 ingredients contributing
  * to each region's observed food pairing.
  *
  * Usage: spark-submit --class repro.jobs.ContributionJob repro.jar [scale] [nRand]
  * The signs come from Fig 4 at nRand = 100000, as in the paper.
  */
object ContributionJob {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    val nRand = args.lift(1).map(_.toInt).getOrElse(100000)
    val spark = SparkSession.builder.appName("contribution").getOrCreate()
    val p = Pipeline.get(spark, scale)

    val signs = Experiments.observedSigns(Experiments.foodPairing(p, nRand))
    val rows = Experiments.topContributors(p, signs)
    println(Experiments.fmtTable(
      Seq("Region", "Rank", "Ingredient", "Chi(%)", "Freq", "PopRank"),
      rows.map(r => Seq(r.region, r.rank.toString, r.ingredient,
                        f"${r.chi}%.3f", r.freq.toString, r.popularityRank.toString))))
    spark.stop()
  }
}
