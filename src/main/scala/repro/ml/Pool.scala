package repro.ml

import java.util.concurrent.{CountDownLatch, LinkedBlockingQueue}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong, AtomicReference}
import scala.reflect.ClassTag

/** The local engine's one pool of threads: `availableProcessors − 1` daemon
  * workers, started once per JVM, plus the calling thread, which takes part
  * in its own call's work. Its size never depends on the data.
  *
  * A call hands out its indices one at a time to whichever of its caller
  * and the workers is free, and waits only until every index of its own has
  * run. An index is only ever claimed by a thread that runs it at once, so a
  * call never waits on a queued task: calls made from inside an index
  * (nested) and calls from several threads at once (test suites run side by
  * side) all finish. The kernels that use it split their work into parts
  * that write disjoint outputs, or into exact sums, so the doubles do not
  * depend on which thread ran which part (DESIGN.md, "Threads"). Never call
  * it inside a Spark task, whose executor has its own threads.
  *
  * Each kernel runs its first `WarmupNanos` of indices in a JVM on the
  * caller alone, and only then invites the workers. Until C2 has compiled a
  * kernel, HotSpot runs it as profiled C1 code, which updates shared
  * counters at every branch: 4 threads splitting a dot-product loop in that
  * tier took 34× as long as 1 thread doing all of it, and running the
  * kernels on 4 threads from the first call made local-wide's cold fit
  * 30–45% slower. A kernel is a class: that of the function `tabulate` is
  * given, one lambda of the source, or of the key `foreachOf` is given.
  */
object Pool {

  /** Threads that run a call's indices: the workers and the caller. */
  val parallelism: Int = math.max(1, Runtime.getRuntime.availableProcessors)

  /** Time each kernel runs on the caller alone, from its first call. */
  private[ml] val WarmupNanos: Long = 100L * 1000 * 1000

  /** Warm-up left per kernel, in nanoseconds. */
  private val warmup = new ClassValue[AtomicLong] {
    def computeValue(kernel: Class[_]): AtomicLong = new AtomicLong(WarmupNanos)
  }

  /** One call's indices: claimed in ascending order, counted down as they end. */
  private final class Call(n: Int, f: Int => Unit) {
    private val next = new AtomicInteger(0)
    private val done = new CountDownLatch(n)
    private val failure = new AtomicReference[Throwable](null)

    /** Claims and runs one index; false if none was left. After a failure
      * the rest are counted down without running.
      */
    def runOne(): Boolean = {
      val i = next.getAndIncrement()
      if (i < n) {
        if (failure.get == null)
          try f(i) catch { case t: Throwable => failure.compareAndSet(null, t) }
        done.countDown()
      }
      i < n
    }

    /** Runs unclaimed indices until none is left. */
    def work(): Unit = while (runOne()) ()

    /** Waits for the indices other threads claimed; rethrows the first failure. */
    def await(): Unit = {
      done.await()
      val t = failure.get
      if (t != null) throw t
    }
  }

  /** Each entry invites one worker to join a call. */
  private val invitations = new LinkedBlockingQueue[Call]()

  locally {
    val queue = invitations
    (1 until parallelism).foreach { w =>
      val t = new Thread(() => while (true) queue.take().work(), s"safe-pool-$w")
      t.setDaemon(true)
      t.start()
    }
  }

  /** `f(0)`, …, `f(n − 1)`, each run once, on the caller and up to
    * `parallelism − 1` workers, as calls of the kernel `kernel.getClass`;
    * returns when all have run. The first exception any of them throws is
    * rethrown here, after the others end.
    */
  def foreachOf(kernel: AnyRef, n: Int)(f: Int => Unit): Unit =
    if (n == 1) f(0)
    else if (n > 1) {
      val call = new Call(n, f)
      val left = warmup.get(kernel.getClass)
      var more = true
      while (more && left.get > 0) {
        val t0 = System.nanoTime()
        more = call.runOne()
        left.addAndGet(t0 - System.nanoTime())
      }
      if (more) {
        var k = math.min(n, parallelism) - 1
        while (k > 0) { invitations.put(call); k -= 1 }
        call.work()
      }
      call.await()
    }

  /** `Array.tabulate(n)(f)` with the entries computed through `foreachOf`,
    * as calls of the kernel `f`.
    */
  def tabulate[A: ClassTag](n: Int)(f: Int => A): Array[A] = {
    val out = new Array[A](n)
    foreachOf(f, n)(i => out(i) = f(i))
    out
  }
}
