package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Table 1: recipes and unique ingredients per region.
  *
  * Usage: spark-submit --class repro.jobs.Table1Job repro.jar [scale]
  */
object Table1Job {
  def main(args: Array[String]): Unit =
    Job.run("table1", args)(p => println(Experiments.fmtTable1(Experiments.table1(p))))
}
