package repro.jobs

import org.apache.spark.sql.functions.col

import repro.exp.Experiments
import repro.ingest.Aliaser

/** Quick end-to-end smoke run at reduced scale (not a paper table).
  *
  * Usage: spark-submit --class repro.jobs.SmokeJob repro.jar [scale] [nRand]
  */
object SmokeJob {
  def main(args: Array[String]): Unit =
    Job.run("smoke", args, defaultScale = 0.05) { p =>
      val nRand = args.lift(1).map(_.toInt).getOrElse(2000)
      println(s"recipes rows = ${p.recipes.count()}, phrases = ${p.phrases.count()}")
      val unmatched = Aliaser.alias(p.spark, p.universe, p.phrases)
        .filter(col("ing_id") === Aliaser.UnmatchedId).count()
      println(s"unmatched phrases = $unmatched")

      val t1 = System.nanoTime()
      val rows = Experiments.foodPairing(p, nRand,
        regions = Vector("ITA", "USA", "SCND", "KOR", "AFR", "EE"))
      println(s"pairing in ${(System.nanoTime() - t1) / 1e9} s")
      println(Experiments.fmtFoodPairing(rows))
    }
}
