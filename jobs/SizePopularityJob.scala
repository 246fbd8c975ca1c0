package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Fig 3 (as tables): recipe-size distribution and
  * ingredient-popularity scaling per region.
  *
  * Usage: spark-submit --class repro.jobs.SizePopularityJob repro.jar [scale]
  */
object SizePopularityJob {
  def main(args: Array[String]): Unit =
    Job.run("size-popularity", args) { p =>
      println(Experiments.fmtSizes(Experiments.meanSizes(p), Experiments.popularitySlopes(p)))
      println(Experiments.fmtSizeHistogram(Experiments.worldSizeHistogram(p)))
    }
}
