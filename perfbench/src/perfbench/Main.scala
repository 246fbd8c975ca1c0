package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Paths}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.sql.SparkSession


/** One benchmark run: set up once (a SparkSession, and the pipeline built
  * and forced where the workload needs it), timed from JVM start; run the
  * workload back to back for `--seconds` (at least once); check the last
  * output against brute-force references; and with `--trace 1` then repeat
  * set-up and workload once more under spans. Prints the result as its last
  * line.
  */
object Main {

  private val MaxReps = 5
  private val ShufflePartitions = 16

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val seed = args("seed").toLong
    val ps = Params(
      scale = args("scale").toDouble,
      corpusSeed = seed,          // 7 reproduces the paper-scale defaults
      nullSeed = seed + 4,        // 11 for seed 7, the program's default
      nRand = args("nrand").toInt,
      regions = args("regions").split(",").toVector)
    HeapPeak.install()
    val workload: Workload[_] = args("workload") match {
      case "corpus_build"      => new CorpusBuild(ps)
      case "fig4_nullmodels"   => new Fig4NullModels(ps)
      case "fig5_contribution" => new Fig5Contribution
      case w                 => throw new IllegalArgumentException(s"unknown workload $w")
    }
    val result = execute(workload, ps, args("seconds").toDouble, args("trace") == "1",
                         args("cores").toInt, args("local-dir"))
    val env = Json.obj(
      "git_sha" -> Json.str(args("git-sha")),
      "source_sha256" -> Json.str(args("source-sha256")),
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "spark_master" -> Json.str(result.master),
      "default_parallelism" -> result.parallelism.toString,
      "shuffle_partitions" -> ShufflePartitions.toString,
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "jvm_flags" -> Json.str(args("jvm-flags")),
      "workload" -> Json.str(workload.name),
      "corpus_seed" -> ps.corpusSeed.toString, "null_seed" -> ps.nullSeed.toString,
      "scale" -> ps.scale.toString, "nrand" -> ps.nRand.toString,
      "regions" -> Json.arr(ps.regions.map(Json.str)))
    val checks = result.checks
    val failedFrac = checks.failed.size.toDouble / checks.count
    val resultLine = Json.obj(
      "correct" -> (checks.failed.isEmpty).toString,
      "attempted" -> checks.count.toString,
      "failed" -> checks.failed.size.toString,
      "metrics" -> Json.obj(result.metrics.map { case (n, v, u) =>
        n -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u)) }: _*))
    val record = Json.obj(
      "environment" -> env,
      "failed_frac" -> Json.num(failedFrac),
      "failures" -> Json.arr(checks.failed.map(Json.str)),
      "setup_s" -> Json.num(result.setupS),
      "wall_s" -> Json.arr(result.walls.map(Json.num)),
      "check_s" -> Json.num(result.checkS),
      "teardown_s" -> Json.num(result.teardownS),
      "jvm_s" -> Json.num((System.currentTimeMillis() -
        ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3),
      "spans" -> Json.arr(result.spans.map { s =>
        Json.obj("name" -> Json.str(s.name), "parent" -> s.parent.toString,
                 "seconds" -> Json.num(s.seconds)) }),
      "result" -> resultLine)
    Files.write(Paths.get(args("record")), record.getBytes("UTF-8"))
    checks.failed.foreach(f => Console.err.println(s"check failed: $f"))
    println(Json.obj("environment" -> env, "failed_frac" -> Json.num(failedFrac),
                     "checks_attempted" -> checks.count.toString))
    println(resultLine)
    sys.exit(0)
  }

  final case class Result(master: String, parallelism: Int, checks: Checks,
                          setupS: Double, walls: Vector[Double],
                          checkS: Double, teardownS: Double,
                          spans: Vector[Tracer.Span], metrics: Seq[(String, Double, String)])

  private def startSpark(cores: Int, localDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def now(): Double = System.nanoTime() / 1e9

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def execute[R](w: Workload[R], ps: Params, seconds: Double, trace: Boolean,
                         cores: Int, localDir: String): Result = {
    val checks = new Checks
    // Set-up counts from JVM start (wall clock, ms resolution) to inputs ready.
    val jvmStart = now() - (System.currentTimeMillis() -
      ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val spark = startSpark(cores, localDir)
    val prepared = if (w.prepares) Some(Prepare.untraced(spark, ps)) else None
    val setupS = now() - jvmStart
    val master = spark.sparkContext.master
    val parallelism = spark.sparkContext.defaultParallelism

    val walls = mutable.ArrayBuffer.empty[Double]
    val start = now()
    var out: Option[R] = None
    // A traced run times two untraced repetitions, so the one its trace is
    // compared with has warmed up as far as the traced one has.
    val minReps = if (trace) 2 else 1
    while (walls.size < minReps || (now() - start < seconds && walls.size < MaxReps)) {
      out.foreach(w.release)
      val t0 = now()
      out = Some(w.run(spark, prepared))
      walls += now() - t0
    }
    val tCheck = now()
    w.check(checks, prepared, out.get)   // outside the timed interval
    val checkS = now() - tCheck
    // The untraced pipeline preparation that trace.overhead_s compares the
    // traced one with, timed again so that both run with a warm JIT.
    val warmPrepareS =
      if (trace && w.prepares) {
        prepared.foreach(Prepare.release)
        val t0 = now()
        val again = Prepare.untraced(spark, ps)
        val s = now() - t0
        Prepare.release(again)
        s
      } else 0.0
    val tTeardown = now()
    spark.stop()   // drops every cached table
    val teardownS = now() - tTeardown
    val heapPeakMb = HeapPeak.peakBytes / 1048576.0

    var spans = Vector.empty[Tracer.Span]
    val metrics =
      if (!trace) Seq(
        ("setup_s", setupS, "s"),
        ("wall_s", median(walls.toSeq), "s"))
      else {
        val tSpark = startSpark(cores, localDir)
        val tracer = new Tracer(tSpark.sparkContext)
        val counts = new Counts
        val tPrepared = if (w.prepares) Some(Prepare.traced(tracer, tSpark, ps, counts)) else None
        val tOut = w.traced(tracer, tSpark, tPrepared, counts)
        val summary = tracer.finish()
        spans = summary.spans
        checks("traced calls give the program's output", w.same(tOut, out.get))
        tSpark.stop()
        val untraced = warmPrepareS + walls.last
        Layers.metrics(summary, counts, cores, untraced,
                       checks.failed.size.toDouble / checks.count) :+
          (("heap_live_peak_mb", heapPeakMb, "MB"))
      }
    Result(master, parallelism, checks, setupS, walls.toVector, checkS, teardownS,
           spans, metrics)
  }
}

/** Largest heap in use right after a GC, summed over heap pools. */
object HeapPeak {
  @volatile private var peak = 0L

  def peakBytes: Long = peak

  def install(): Unit = {
    val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
    val listener = new NotificationListener {
      def handleNotification(n: Notification, handback: Any): Unit =
        if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
          val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
            .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
          synchronized { if (used > peak) peak = used }
        }
    }
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
      case _ =>
    }
  }
}

/** Minimal JSON rendering; values are passed pre-rendered. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")
  def obj(kv: (String, String)*): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
