package perfbench

import com.sun.management.GarbageCollectionNotificationInfo
import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.core.{GenFeature, Safe}
import repro.ml.{GbdtModel, HistBackend, LocalMatrix, Node}
import scala.jdk.CollectionConverters._
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** One `Engine.trainGbdt` call as seen from outside: the names it was given,
  * the local engine's matrix at that moment (None on Spark) and the model it
  * returned. The matrix is immutable once built, so keeping the reference is
  * enough to replay the call later.
  */
final case class GbdtCall(names: Seq[String], data: Option[LocalMatrix], model: GbdtModel)

/** `Safe.Engine` decorator that times every engine call as a span. Spans are
  * sequential (Algorithm 1 calls the engine from one thread), so the time of
  * `Safe.run` outside all spans is SAFE's own work: `Safe.run` wall time
  * minus the span total.
  *
  * `boundary` runs before and after each span, outside it; the heap probe
  * uses it to read the live heap after a forced collection, and to serve
  * records. With a SparkContext, each span's name is set as a local
  * property so that `JobCounter` can attribute the jobs the span starts.
  */
class SpanEngine(inner: Safe.Engine, sc: Option[SparkContext], boundary: () => Unit)
    extends Safe.Engine {
  val spanNanos: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty
  val spanCalls: mutable.Map[String, Int] = mutable.Map.empty

  private def span[A](name: String)(body: => A): A = {
    boundary()
    sc.foreach(_.setLocalProperty(JobCounter.SpanKey, name))
    val t0 = System.nanoTime()
    try body
    finally {
      spanNanos(name) = spanNanos.getOrElse(name, 0L) + (System.nanoTime() - t0)
      spanCalls(name) = spanCalls.getOrElse(name, 0) + 1
      sc.foreach(_.setLocalProperty(JobCounter.SpanKey, null))
      boundary()
    }
  }

  protected def localData: Option[LocalMatrix] = inner match {
    case l: Safe.LocalEngine => Some(l.current)
    case _ => None
  }

  def originalNames: Seq[String] = inner.originalNames
  def existingNames: Set[String] = inner.existingNames
  def trainGbdt(names: Seq[String]): GbdtModel = span("gbdt")(inner.trainGbdt(names))
  def addGenerated(gs: Seq[GenFeature]): Unit = span("add_generated")(inner.addGenerated(gs))
  def scoringMatrix(names: Seq[String]): LocalMatrix = span("scoring_matrix")(inner.scoringMatrix(names))
  def ivAll(names: Seq[String], beta: Int): Map[String, Double] = span("iv")(inner.ivAll(names, beta))
  def corrMatrix(names: Seq[String]): Array[Array[Double]] = span("corr")(inner.corrMatrix(names))
}

/** `SpanEngine` that also keeps each GBDT call and the scoring matrix, for
  * the replays. It holds them past their use in `Safe.run`, so the heap
  * probe uses a plain `SpanEngine`.
  */
final class CapturingEngine(inner: Safe.Engine, sc: Option[SparkContext])
    extends SpanEngine(inner, sc, () => ()) {
  val gbdtCalls: ArrayBuffer[GbdtCall] = ArrayBuffer.empty
  var scoring: Option[LocalMatrix] = None

  override def trainGbdt(names: Seq[String]): GbdtModel = {
    val before = localData
    val model = super.trainGbdt(names)
    gbdtCalls += GbdtCall(names, before, model)
    model
  }
  override def scoringMatrix(names: Seq[String]): LocalMatrix = {
    val m = super.scoringMatrix(names)
    scoring = Some(m)
    m
  }
}

/** Spark work attributed to one span. `histJobs` and `histMs` are the
  * histogram passes of `SparkHist` (its `treeAggregate` jobs) and their
  * wall time from job start to job end.
  */
final case class SparkCounts(jobs: Long, tasks: Long, deserializeMs: Long, runMs: Long,
                             histJobs: Long, histMs: Long) {
  def +(o: SparkCounts): SparkCounts = SparkCounts(jobs + o.jobs, tasks + o.tasks,
    deserializeMs + o.deserializeMs, runMs + o.runMs, histJobs + o.histJobs, histMs + o.histMs)
  def -(o: SparkCounts): SparkCounts = SparkCounts(jobs - o.jobs, tasks - o.tasks,
    deserializeMs - o.deserializeMs, runMs - o.runMs, histJobs - o.histJobs, histMs - o.histMs)
}

object SparkCounts { val Zero: SparkCounts = SparkCounts(0, 0, 0, 0, 0, 0) }

/** Counts Spark jobs, tasks and task time per span (the `SpanKey` local
  * property of the thread that started the job; "other" when unset).
  * Listener events arrive asynchronously, so `during` waits for them to settle.
  */
final class JobCounter extends SparkListener {
  private val stageSpan = mutable.Map.empty[Int, String]
  private val bySpan = mutable.Map.empty[String, SparkCounts]
  /** Open histogram jobs: job id -> (span, start time in ms). */
  private val histStart = mutable.Map.empty[Int, (String, Long)]
  private var started = 0L
  private var ended = 0L
  private var events = 0L

  private def add(span: String, c: SparkCounts): Unit =
    bySpan(span) = bySpan.getOrElse(span, SparkCounts.Zero) + c

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(JobCounter.SpanKey))).getOrElse("other")
    e.stageIds.foreach(stageSpan(_) = span)
    add(span, SparkCounts(1, 0, 0, 0, 0, 0))
    if (e.stageInfos.exists(_.name.startsWith(JobCounter.HistStage))) histStart(e.jobId) = (span, e.time)
    started += 1; events += 1
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    histStart.remove(e.jobId).foreach { case (span, t0) => add(span, SparkCounts(0, 0, 0, 0, 1, e.time - t0)) }
    ended += 1; events += 1
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    val (deser, run) = if (m == null) (0L, 0L) else (m.executorDeserializeTime, m.executorRunTime)
    add(stageSpan.getOrElse(e.stageId, "other"), SparkCounts(0, 1, deser, run, 0, 0))
    events += 1
  }

  /** Wait until every started job has ended and no event arrived for 300 ms. */
  private def settle(): Unit = {
    var last = -1L
    var quietSince = System.nanoTime()
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (System.nanoTime() < deadline) {
      val (ev, open) = synchronized((events, started - ended))
      if (ev != last) { last = ev; quietSince = System.nanoTime() }
      else if (open == 0 && System.nanoTime() - quietSince > 300L * 1000000L) return
      Thread.sleep(20)
    }
    throw new IllegalStateException("Spark listener did not settle within 30 s")
  }

  private def snapshot(): Map[String, SparkCounts] = synchronized(bySpan.toMap)

  /** Settles, runs `body`, settles again; returns what `body` started, per span. */
  def during(body: => Unit): Map[String, SparkCounts] = {
    settle()
    val before = snapshot()
    body
    settle()
    snapshot().map { case (k, c) => k -> (c - before.getOrElse(k, SparkCounts.Zero)) }
  }
}

object JobCounter {
  val SpanKey = "perfbench.span"
  /** Call site Spark gives the stages of `SparkHist.histograms`. */
  val HistStage = "treeAggregate at HistBackend.scala"
}

/** Histogram backend that counts and times the passes of another. */
final class CountingHist(inner: HistBackend) extends HistBackend {
  var calls = 0
  var nanos = 0L
  def numRows: Long = inner.numRows
  def histograms(prevTrees: Array[Array[Node]], partial: Array[Node], pending: Array[Int],
                 offsets: Array[Int], totalBins: Int): (Array[Array[Double]], Array[Array[Double]]) = {
    val t0 = System.nanoTime()
    try inner.histograms(prevTrees, partial, pending, offsets, totalBins)
    finally { nanos += System.nanoTime() - t0; calls += 1 }
  }
}

/** JVM-wide counters read around a timed section. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val memory = ManagementFactory.getMemoryMXBean

  /** (collections, collection ms) summed over all collectors. */
  def gc(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount.max(0L)).sum, beans.map(_.getCollectionTime.max(0L)).sum)
  }

  def threadAllocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Full collection, then the heap in use: the live set at this point. */
  def liveHeapBytes(): Long = {
    System.gc()
    memory.getHeapMemoryUsage.getUsed
  }

  private val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet

  /** Runs `body` while another thread forces a full collection every
    * `everyMs`; returns its result and the largest heap in use right after
    * any collection that ran meanwhile. The samples are close enough that
    * the peak does not depend on when they fall: the live set does not move
    * much in `everyMs`.
    */
  def peakHeapAfterGc[A](everyMs: Long)(body: => A): (A, Long) = {
    val emitters = ManagementFactory.getGarbageCollectorMXBeans.asScala.collect { case e: NotificationEmitter => e }
    var peak, seen = 0L
    val listener = new NotificationListener {
      def handleNotification(n: Notification, handback: Any): Unit =
        if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
          val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
            .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
          this.synchronized { peak = math.max(peak, used); seen += 1 }
        }
    }
    val count0 = gc()._1
    emitters.foreach(_.addNotificationListener(listener, null, null))
    @volatile var running = true
    val sampler = new Thread(() => while (running) { System.gc(); Thread.sleep(everyMs) }, "heap-sampler")
    sampler.setDaemon(true)
    try {
      sampler.start()
      val result = try body finally { running = false; sampler.join() }
      // notifications arrive on another thread: wait for one per collection
      val deadline = System.nanoTime() + 10L * 1000000000L
      while (listener.synchronized(seen) < gc()._1 - count0 && System.nanoTime() < deadline) Thread.sleep(5)
      (result, listener.synchronized(peak))
    } finally emitters.foreach(_.removeNotificationListener(listener))
  }

  def maxHeapBytes: Long = memory.getHeapMemoryUsage.getMax
}

/** Minimal JSON writer for the numbers, strings and lists the JVM reports. */
object Json {
  def apply(v: Any): String = v match {
    case s: String => quote(s)
    case d: Double => if (java.lang.Double.isFinite(d)) d.toString else "null"
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case xs: Array[_] => apply(xs.toSeq)
    case other => throw new IllegalArgumentException(s"no JSON form for ${other.getClass}")
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.toString
  }
}
