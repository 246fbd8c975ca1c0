package org.apache.spark

/** Waits until every queued listener event has been delivered, so a span's
  * task metrics are complete before they are read. The listener bus is
  * private to Spark; this file lives in Spark's package to reach it.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
