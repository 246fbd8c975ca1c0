package repro.jobs

import org.apache.spark.SparkConf
import org.apache.spark.sql.SparkSession

import repro.pipeline.Pipeline

/** What every job shares: a SparkSession on the master spark-submit names
  * (local[*] when there is none), the pipeline at the scale given as the
  * first argument, and `spark.stop()` once `body` is done.
  */
object Job {
  def run(appName: String, args: Array[String], defaultScale: Double = 1.0)(body: Pipeline => Unit): Unit = {
    val conf = new SparkConf().setIfMissing("spark.master", "local[*]")
    val spark = SparkSession.builder().config(conf).appName(appName).getOrCreate()
    // Keep the printed tables readable, as the benches do.
    spark.sparkContext.setLogLevel("WARN")
    try body(Pipeline.build(spark, args.headOption.fold(defaultScale)(_.toDouble)))
    finally spark.stop()
  }
}
