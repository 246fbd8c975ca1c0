package perfbench

/** The per-layer metrics of a traced run, named `<module>.<layer>`. For a
  * span that runs Spark jobs, `<span>.tasks`, `<span>.task_s` (summed
  * executor run time) and `<span>.shuffle_mb` (shuffle bytes written) come
  * with its time. Every run reports every metric; a layer the workload does
  * not exercise reads 0.
  */
object Layers {

  def metrics(s: Tracer.Summary, c: Counts, cores: Int, untracedWall: Double,
              failedFrac: Double): Seq[(String, Double, String)] = {
    def time(span: String) = (s"${span}_s", s.total(span), "s")
    def count(name: String) = (name, c(name), "count")
    def spark(span: String) = {
      val w = s.sparkWork(span)
      Seq(time(span), (s"$span.tasks", w.tasks.toDouble, "count"),
          (s"$span.task_s", w.runMs / 1e3, "s"),
          (s"$span.shuffle_mb", w.shuffleBytes / 1048576.0, "MB"))
    }
    val nullScores = s.total("core.null_scores")
    val nullBusy =
      if (nullScores > 0) s.sparkWork("core.null_scores").runMs / 1e3 / (nullScores * cores) else 0.0
    val phrases = c("data.phrases")

    Seq(time("flavor.universe"), time("data.corpus_gen"), count("data.recipes"),
        count("data.slots"), time("data.phrase_gen"), count("data.phrases"),
        time("pipeline.build")) ++
      spark("pipeline.phrases") ++
      spark("ingest.alias") ++
      Seq(count("ingest.matched"), count("ingest.unmatched"), count("ingest.noise"),
          ("ingest.match_ratio", if (phrases > 0) c("ingest.matched") / phrases else 0.0, "ratio")) ++
      spark("flavor.profiles") ++ Seq(count("flavor.profile_rows")) ++
      spark("flavor.pair_shared") ++ Seq(count("flavor.pairs")) ++
      spark("stats.table1") ++ spark("stats.category") ++ spark("stats.sizes") ++
      spark("stats.popularity") ++
      spark("core.real_scores") ++
      Seq(time("core.profile"), count("core.profile_calls"),
          time("core.sample_rows"), count("core.sampled_slots")) ++
      spark("core.null_scores") ++
      Seq(("core.null_scores_max_s", s.max("core.null_scores"), "s"),
          ("core.null_scores.busy", nullBusy, "ratio"),
          count("core.streams"), count("core.null_recipes"),
          ("core.mc_se_max", c("core.mc_se_max"), "molecules")) ++
      spark("core.pairs") ++ Seq(count("core.pairs")) ++
      spark("core.chi") ++ Seq(count("core.chi_rows")) ++
      Seq(("spark.jobs", s.jobs.toDouble, "count"),
          ("trace.overhead_s", s.wall - untracedWall, "s"),
          ("trace.coverage", s.selfTime / s.wall, "ratio"),
          ("failed_frac", failedFrac, "ratio"))
  }
}
