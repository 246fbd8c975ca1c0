package repro

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.pipeline.Pipeline

/** Pipelines shared by the suites and benches of one test JVM, one per
  * (session, scale), so a stopped session's cached tables are never reused.
  */
object TestPipeline {
  val Scale = 0.03

  private val cache = mutable.HashMap.empty[(SparkSession, Double), Pipeline]

  def get(spark: SparkSession, scale: Double = Scale): Pipeline =
    cache.synchronized(cache.getOrElseUpdate((spark, scale), Pipeline.build(spark, scale)))
}
