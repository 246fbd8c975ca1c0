package perfbench

import scala.collection.mutable

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Span recorder for the traced run. Spans are kept in memory, nest by call
  * order (one thread makes every call), and are read out when the run
  * ends. A span marked `spark` also tags the Spark jobs started inside it, so
  * the listener can sum their tasks, executor run time and shuffle bytes.
  */
final class Tracer(sc: SparkContext) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private val listener = new SpanListener
  sc.addSparkListener(listener)

  private val t0 = System.nanoTime()

  def span[A](name: String, spark: Boolean = false)(body: => A): A = {
    val idx = spans.length
    spans += Span(name, open.headOption.getOrElse(-1), System.nanoTime(), -1L)
    open = idx :: open
    val prev = sc.getLocalProperty(SpanKey)
    if (spark) sc.setLocalProperty(SpanKey, name)
    try body
    finally {
      if (spark) sc.setLocalProperty(SpanKey, prev)
      spans(idx) = spans(idx).copy(end = System.nanoTime())
      open = open.tail
    }
  }

  /** Close the trace: wait for listener events and return the summary. */
  def finish(): Summary = {
    val wall = (System.nanoTime() - t0) / 1e9
    ListenerBusDrain(sc)
    sc.removeSparkListener(listener)
    Summary(spans.toVector, wall, listener.jobs, listener.bySpan.toMap)
  }
}

object Tracer {
  val SpanKey = "perfbench.span"

  final case class Span(name: String, parent: Int, start: Long, end: Long) {
    def seconds: Double = (end - start) / 1e9
  }

  final case class SparkWork(tasks: Long, runMs: Long, shuffleBytes: Long) {
    def +(o: SparkWork) = SparkWork(tasks + o.tasks, runMs + o.runMs, shuffleBytes + o.shuffleBytes)
  }

  final case class Summary(spans: Vector[Span], wall: Double, jobs: Int,
                           work: Map[String, SparkWork]) {
    def total(name: String): Double = spans.filter(_.name == name).map(_.seconds).sum
    def max(name: String): Double = spans.filter(_.name == name).map(_.seconds).maxOption.getOrElse(0.0)
    def sparkWork(name: String): SparkWork = work.getOrElse(name, SparkWork(0, 0, 0))

    /** Sum over spans of their duration minus their direct children's. */
    def selfTime: Double = {
      val child = new Array[Double](spans.length)
      spans.foreach(s => if (s.parent >= 0) child(s.parent) += s.seconds)
      spans.indices.map(i => spans(i).seconds - child(i)).sum
    }
  }

  /** Sums task metrics per span name; stages map to the span of their job. */
  private final class SpanListener extends SparkListener {
    private val stageSpan = mutable.HashMap.empty[Int, String]
    val bySpan = mutable.HashMap.empty[String, SparkWork]
    @volatile var jobs = 0

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      jobs += 1
      Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey)))
        .foreach(name => e.stageIds.foreach(stageSpan(_) = name))
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      for (name <- stageSpan.get(e.stageId); m <- Option(e.taskMetrics)) {
        val w = SparkWork(1, m.executorRunTime, m.shuffleWriteMetrics.bytesWritten)
        bySpan(name) = bySpan.getOrElse(name, SparkWork(0, 0, 0)) + w
      }
    }
  }
}
