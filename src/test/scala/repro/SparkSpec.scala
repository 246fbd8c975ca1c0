package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Size-based automatic broadcast joins are off, so joins without
  * a hint take the shuffle path even on small test tables; the explicit
  * `broadcast()` hints in the code still broadcast.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  /** SPARK_MASTER if set, else local[SPARK_GRAFT_CPUS] when that is a
    * positive count, else local[*].
    */
  private def master: String = sys.env.getOrElse("SPARK_MASTER",
    sys.env.get("SPARK_GRAFT_CPUS").filter(_.matches("[1-9][0-9]*"))
      .fold("local[*]")(n => s"local[$n]"))

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(master)
      .appName("repro")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // Keep bench/test stdout readable — the paper tables drown in INFO logs.
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
