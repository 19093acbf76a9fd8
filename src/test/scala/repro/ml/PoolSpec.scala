package repro.ml

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray}
import scala.jdk.CollectionConverters._
import org.scalatest.funsuite.AnyFunSuite

/** A kernel whose warm-up `PoolSpec` spends first, so its calls run on the workers too. */
private object Warm

/** A kernel no test runs before "a kernel runs on the caller alone ...". */
private object Fresh

class PoolSpec extends AnyFunSuite {

  // ~100 sleeping indices on the caller, then the rest on every thread
  Pool.foreachOf(Warm, 3 * (Pool.WarmupNanos / 1000000).toInt)(_ => Thread.sleep(1))

  /** How many times `Pool.foreachOf(Warm, n)` ran each index. */
  private def runCounts(n: Int): Seq[Int] = {
    val counts = new AtomicIntegerArray(n)
    Pool.foreachOf(Warm, n)(i => counts.incrementAndGet(i))
    (0 until n).map(counts.get)
  }

  test("each index runs exactly once, below, at and far above the thread count") {
    val sizes = Seq(0, 1, 2, Pool.parallelism - 1, Pool.parallelism, Pool.parallelism + 1, 10000).filter(_ >= 0).distinct
    sizes.foreach(n => assert(runCounts(n) == Seq.fill(n)(1), s"n = $n"))
    assert(Pool.tabulate(1000)(i => i * i).toSeq == (0 until 1000).map(i => i * i))
  }

  test("the first exception reaches the caller, and the pool still works after it") {
    Seq(1, 3, 1000).foreach { n =>
      val e = intercept[IllegalStateException] {
        Pool.foreachOf(Warm, n)(i => if (i == n - 1) throw new IllegalStateException(s"index $i"))
      }
      assert(e.getMessage == s"index ${n - 1}")
      assert(runCounts(n) == Seq.fill(n)(1), s"after a failure at n = $n")
    }
  }

  test("nested calls and six concurrent callers complete") {
    def nested(): Int = {
      val total = new AtomicInteger(0)
      Pool.foreachOf(Warm, 7)(_ => Pool.foreachOf(Warm, 50)(_ => Pool.foreachOf(Warm, 3)(_ => total.incrementAndGet())))
      total.get
    }
    assert(nested() == 7 * 50 * 3)
    val results = new AtomicIntegerArray(6)
    val callers = (0 until 6).map(c => new Thread(() => results.set(c, nested())))
    callers.foreach(_.start())
    callers.foreach(_.join(60000))
    assert(callers.forall(!_.isAlive), "a concurrent caller did not finish")
    assert((0 until 6).map(results.get) == Seq.fill(6)(7 * 50 * 3))
  }

  test("a kernel runs on the caller alone for its warm-up, then on the workers too") {
    val n = 3 * (Pool.WarmupNanos / 1000000).toInt
    val ranOn = new Array[Thread](n)
    val startedAt = new Array[Long](n)
    val t0 = System.nanoTime()
    Pool.foreachOf(Fresh, n) { i => ranOn(i) = Thread.currentThread; startedAt(i) = System.nanoTime(); Thread.sleep(1) }
    val duringWarmup = (0 until n).filter(i => startedAt(i) - t0 < Pool.WarmupNanos)
    assert(duringWarmup.nonEmpty && duringWarmup.forall(ranOn(_) eq Thread.currentThread), "the warm-up left the caller")
    if (Pool.parallelism > 1) assert(ranOn.exists(_.getName.startsWith("safe-pool-")), "no worker joined after the warm-up")
  }

  test("the pool's threads are parallelism − 1 daemons, so a JVM exits without waiting for them") {
    val workers = Thread.getAllStackTraces.keySet.asScala.filter(_.getName.startsWith("safe-pool-"))
    assert(workers.size == Pool.parallelism - 1)
    assert(workers.forall(_.isDaemon))
    assert(Pool.parallelism == Runtime.getRuntime.availableProcessors)
  }
}
