package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Fig 2 (as a table): share of recipe-ingredient slots
  * per (region, category).
  *
  * Usage: spark-submit --class repro.jobs.CategoryCompositionJob repro.jar [scale]
  */
object CategoryCompositionJob {
  def main(args: Array[String]): Unit =
    Job.run("category-composition", args) { p =>
      println(Experiments.fmtCategoryComposition(Experiments.categoryComposition(p)))
    }
}
