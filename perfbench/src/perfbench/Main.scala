package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, sum}
import repro.core.{FeaturePlan, MinedCombos, PathMining, Safe, SafeConfig, SafeResult}
import repro.data.SynthClass
import repro.data.SynthClass.DatasetSpec
import repro.ml.{Binning, Gbdt, GbdtModel, LocalHist, LocalMatrix, Metrics}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** One benchmark JVM. `run` measures the end-to-end metrics of one
  * workload without tracing; `trace` times each layer through an engine
  * decorator, a Spark listener and replays. Either way the last stdout line
  * is one JSON object; `run.py` starts the JVMs and aggregates them.
  *
  * Usage: perfbench.Main <run|trace> <workload> <seed> <seconds> <records> <auc: 0|1>
  */
object Main {

  final case class Workload(name: String, spec: DatasetSpec, spark: Boolean)

  /** The workloads; `perfbench/README.md` gives why each was chosen. */
  val workloads: Seq[Workload] = Seq(
    Workload("local-wide",
      DatasetSpec("local-wide", 3000, 0, 1000, 80, 3000, 0, 1000, 80, nInteract = 8, noise = 1.0, posRate = 0.50),
      spark = false),
    Workload("local-tall",
      DatasetSpec("local-tall", 40000, 0, 10000, 14, 40000, 0, 10000, 14, nInteract = 4, noise = 1.0, posRate = 0.30),
      spark = false),
    // 10% positives instead of Data2's 4%: see perfbench/README.md
    Workload("spark-fit",
      SynthClass.specByName("Data2").copy(nTrain = 4000, nValid = 0, nTest = 1000, posRate = 0.10),
      spark = true))

  val SparkMaster = "local[4]"
  /** Serving time after each warm fit. */
  val ServeNanos = 500L * 1000 * 1000
  /** Served records are timed in slices of this length; `run.py` keeps the fastest quarter. */
  val SliceNanos = 100L * 1000 * 1000
  /** Interval of the forced collections that sample the heap in the trace;
    * longer on Spark, where each collection of the driver's heap takes ~0.1 s.
    */
  def heapSampleMs(w: Workload): Long = if (w.spark) 250L else 20L
  /** Catalyst Ψ and local Ψ may round differently; they must agree to this relative tolerance. */
  val PsiTolerance = 1e-9

  private val cfg = SafeConfig()

  def main(args: Array[String]): Unit = {
    val Array(mode, name, seedArg, secondsArg, recordsArg, aucArg) = args
    val w = workloads.find(_.name == name).getOrElse(sys.error(s"unknown workload $name"))
    val ctx = new Ctx(w, new Population(w.spec), seedArg.toLong)
    try {
      val out = mode match {
        case "run"   => runMode(ctx, secondsArg.toDouble, recordsArg.toInt, aucArg == "1")
        case "trace" => traceMode(ctx)
        case other   => sys.error(s"unknown mode $other")
      }
      println(Json(out ++ Map("machine" -> ctx.machine)))
    } finally ctx.close()
  }

  /** A workload's population: `SynthClass.generate` at twice the spec's
    * rows, with one structure (planted pairs, scales, redundant copies)
    * that no run's seed changes.
    */
  final class Population(spec: DatasetSpec) {
    private val pop = SynthClass.generate(spec.copy(nTrain = 2 * spec.nTrain, nTest = 2 * spec.nTest), 0L)

    /** A run's (train, test): `seed` draws the spec's rows, without
      * replacement, from the population's train and test parts.
      */
    def draw(seed: Long): (LocalMatrix, LocalMatrix) = {
      val rng = new scala.util.Random(seed)
      def sample(m: LocalMatrix, n: Int): LocalMatrix =
        m.takeRows(rng.shuffle((0 until m.rows).toVector).take(n).sorted.toArray)
      (sample(pop.train, spec.nTrain), sample(pop.test, spec.nTest))
    }
  }

  /** Seed of the sample whose plan every run serves. SAFE's selection moves
    * the plan's size by ±15% between samples, and Ψ's cost with it; serving
    * one plan in every run keeps that out of the Ψ metrics.
    */
  val ReferenceSeed = 0L

  /** A workload's data, and the Spark session and cached train frame on spark-fit. */
  final class Ctx(val w: Workload, population: Population, seed: Long) {
    val (train, test) = population.draw(seed)
    /** The plan Ψ is timed with: SAFE on the reference sample, local engine. */
    def referencePlan(): FeaturePlan = Safe.fitLocal(population.draw(ReferenceSeed)._1, cfg).plan
    val maxOut: Int = math.ceil(cfg.maxOutFactor * train.cols).toInt
    val spark: Option[SparkSession] =
      if (!w.spark) None
      else Some(SparkSession.builder().master(SparkMaster).appName("perfbench")
        .config("spark.sql.shuffle.partitions", "4")
        .config("spark.ui.enabled", "false")
        .getOrCreate())
    private val jobs: Option[JobCounter] = spark.map { s =>
      val c = new JobCounter
      s.sparkContext.addSparkListener(c)
      c
    }
    private var trainDf: Option[DataFrame] = None

    /** Spark work `body` starts, per span; empty without Spark. */
    def jobsDuring(body: => Unit): Map[String, SparkCounts] = jobs match {
      case Some(c) => c.during(body)
      case None => body; Map.empty
    }

    /** On spark-fit, build, cache and count the train frame; part of set-up. */
    def prepare(): Unit = spark.foreach { s =>
      val df = train.toDF(s).cache()
      df.count()
      trainDf = Some(df)
    }

    def newEngine(): Safe.Engine = (spark, trainDf) match {
      case (None, _) =>
        val e = new Safe.LocalEngine(train, cfg.igSampleCap, cfg.seed)
        e.gbdtParams = cfg.gbdt
        e
      case (Some(_), Some(df)) =>
        val e = new Safe.SparkEngine(df, "label", cfg.igSampleCap, cfg.seed)
        e.gbdtParams = cfg.gbdt
        e
      case _ => sys.error("prepare() must run first")
    }

    /** The public entry point the workload measures. */
    def fit(): SafeResult = trainDf match {
      case None     => Safe.fitLocal(train, cfg)
      case Some(df) => Safe.fitSpark(df, "label", cfg)
    }

    def fitThrough(e: SpanEngine): SafeResult = Safe.run(e, cfg, MinedCombos)

    def machine: Map[String, Any] = Map(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "heap_max_mb" -> Jvm.maxHeapBytes / 1048576.0,
      "spark_master" -> spark.map(_.sparkContext.master).getOrElse("none"))

    def close(): Unit = spark.foreach(_.stop())
  }

  /** Failed-operation bookkeeping shared by both modes. */
  final class Checks {
    var attempted = 0
    val failures: ArrayBuffer[String] = ArrayBuffer.empty
    def apply(ok: Boolean, what: => String): Unit = {
      attempted += 1
      if (!ok) failures += what
    }
    def json: Map[String, Any] =
      Map("attempted" -> attempted, "failed" -> failures.length, "failures" -> failures.take(10))
  }

  def fingerprint(r: SafeResult): String = {
    val text = r.plan.generated.map(_.name).mkString(",") + "|" + r.plan.keep.mkString(",")
    java.security.MessageDigest.getInstance("SHA-256").digest(text.getBytes("UTF-8"))
      .take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  private def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Checks every fit makes: the output cap of §IV-C and, on the local
    * engine, one plan for all fits of a run.
    */
  private def checkFit(ctx: Ctx, checks: Checks, r: SafeResult, first: String): Unit = {
    checks(r.plan.keep.length <= ctx.maxOut, s"selected ${r.plan.keep.length} > ${ctx.maxOut}")
    if (!ctx.w.spark) checks(fingerprint(r) == first, s"local plan ${fingerprint(r)} differs from $first")
  }

  // ---------------------------------------------------------------- run mode

  def runMode(ctx: Ctx, seconds: Double, records: Int, auc: Boolean): Map[String, Any] = {
    val checks = new Checks
    Jvm.liveHeapBytes()
    val tSetup = System.nanoTime()
    ctx.prepare()
    val first = ctx.fit()
    val setupS = ms(tSetup) / 1000
    val firstFp = fingerprint(first)
    checkFit(ctx, checks, first, firstFp)
    val plans = mutable.LinkedHashSet(firstFp)

    // Peak heap: a second, untimed fit, with a full collection at every
    // engine-call boundary; the largest live heap these find. It does not
    // depend on when the collector runs, and it does not see what a call
    // holds only while it runs (the traced heap.sampled_peak_mb does).
    //
    // Served records are timed in short slices spread over the whole run:
    // on the 4-vCPU Xeon VM the benchmark was tuned on, the speed of
    // allocation-heavy code swung by up to 1.8x in phases of seconds. So
    // each boundary of this fit also times one batch Ψ and 200 ms of
    // served records, after the collection.
    val psi = new PsiProbe(ctx, ctx.referencePlan(), checks)
    var peak = 0L
    val probed = ctx.fitThrough(new SpanEngine(ctx.newEngine(), None, () => {
      peak = math.max(peak, Jvm.liveHeapBytes())
      psi.batchOnce()
      psi.serveFor(ServeNanos * 2 / 5)
    }))
    checkFit(ctx, checks, probed, firstFp)
    plans += fingerprint(probed)

    // Rounds of one warm fit, one batch Ψ and 500 ms of served records, so
    // that each metric samples the whole window rather than one stretch of
    // it. A fit starts only if the last one would still end within
    // `seconds`, so that the number of fits does not hinge on a few
    // milliseconds. Then rounds go on without the fit until `records`
    // records have been served.
    val fitMs = ArrayBuffer.empty[Double]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    def fitFits: Boolean = fitMs.isEmpty || System.nanoTime() + fitMs.last * 1e6 <= deadline
    while (fitFits || psi.served < records) {
      if (fitFits) {
        Jvm.liveHeapBytes()
        val t0 = System.nanoTime()
        val r = ctx.fit()
        fitMs += ms(t0)
        checkFit(ctx, checks, r, firstFp)
        plans += fingerprint(r)
      }
      psi.batchOnce()
      psi.serveFor(ServeNanos)
    }
    psi.close()

    Map(
      "setup_s" -> setupS,
      "fit_ms" -> fitMs,
      "plans" -> plans.toSeq,
      "heap_peak_mb" -> peak / 1048576.0,
      "record_us" -> psi.recordUs,
      "batch_ms" -> psi.batchMs) ++
      (if (auc) Map("test_auc" -> testAuc(ctx, first.plan)) else Map.empty) ++
      checks.json
  }

  /** Ψ of one plan, timed two ways. Serving: `applyLocal` on a 1-row
    * matrix, a closed loop with one caller; each served record must equal
    * the same row of the batch result. Batch: the whole test set, through
    * `applyLocal` on the local engine and through Catalyst `transform` of
    * the cached test frame on spark-fit, where it must agree with
    * `applyLocal` on the same rows.
    */
  final class PsiProbe(ctx: Ctx, plan: FeaturePlan, checks: Checks) {
    val reference: LocalMatrix = plan.applyLocal(ctx.test)
    /** Served-record times in µs, one buffer per slice. */
    val recordUs: ArrayBuffer[ArrayBuffer[Double]] = ArrayBuffer.empty
    def served: Int = recordUs.map(_.length).sum
    val batchMs: ArrayBuffer[Double] = ArrayBuffer.empty
    private val records = Array.tabulate(ctx.test.rows)(i => ctx.test.takeRows(Array(i)))
    private var next, differing = 0
    private val testDf = ctx.spark.map { s =>
      val df = ctx.test.toDF(s).cache()
      df.count()
      df
    }

    private def batch(): Unit = testDf match {
      case None => plan.applyLocal(ctx.test)
      case Some(df) => forceTransform(plan, df)
    }

    // untimed first use of both paths, and the Catalyst check
    batch()
    records.take(100).foreach(plan.applyLocal)
    testDf.foreach { df =>
      val rows = plan.transform(df).collect()
      var bad = 0
      for (i <- rows.indices; j <- plan.keep.indices) {
        val (a, b) = (rows(i).getDouble(j), reference.x(i)(j))
        if (math.abs(a - b) > PsiTolerance * math.max(1.0, math.abs(b))) bad += 1
      }
      checks(rows.length == reference.rows && bad == 0,
        s"Catalyst Ψ: ${rows.length} rows, $bad values off applyLocal by more than $PsiTolerance")
    }

    def batchOnce(): Unit = {
      Jvm.liveHeapBytes()
      val t0 = System.nanoTime()
      batch()
      batchMs += ms(t0)
    }

    /** Serves records one after another for `nanos`, in slices of
      * `SliceNanos`. It follows a batch, whose collection it relies on.
      */
    def serveFor(nanos: Long): Unit = {
      // a serving process runs with warm caches; the fit before this round evicted them
      (1 to 5).foreach(k => plan.applyLocal(records((next + k) % records.length)))
      val end = System.nanoTime() + nanos
      while (System.nanoTime() < end) {
        val slice = ArrayBuffer.empty[Double]
        val sliceEnd = math.min(end, System.nanoTime() + SliceNanos)
        while (System.nanoTime() < sliceEnd) {
          val i = next % records.length
          next += 1
          val t0 = System.nanoTime()
          val out = plan.applyLocal(records(i))
          slice += (System.nanoTime() - t0) / 1e3
          if (!java.util.Arrays.equals(out.x(0), reference.x(i))) differing += 1
        }
        if (slice.nonEmpty) recordUs += slice
      }
    }

    def close(): Unit = {
      checks(differing == 0, s"$differing of $served served records differ from the batch Ψ")
      testDf.foreach(_.unpersist())
    }
  }

  /** Catalyst Ψ over `df`, forced by summing every kept column. */
  private def forceTransform(plan: FeaturePlan, df: DataFrame): Unit = {
    val sums = plan.keep.map(k => sum(col(k)))
    plan.transform(df).agg(sums.head, sums.tail: _*).collect()
  }

  /** The paper's XGB column: our GBDT trained on Ψ(train), scored on Ψ(test). */
  private def testAuc(ctx: Ctx, plan: FeaturePlan): Double = {
    val testPsi = plan.applyLocal(ctx.test)
    val model = Gbdt.fit(plan.applyLocal(ctx.train))
    100.0 * Metrics.auc(testPsi.y, model.predictProba(testPsi))
  }

  // -------------------------------------------------------------- trace mode

  /** A cold fit, then untraced fits alternating with traced ones. The GBDT
    * layer is replayed on each traced fit's captured calls (local engine),
    * path mining on what the last traced fit captured.
    */
  def traceMode(ctx: Ctx): Map[String, Any] = {
    val checks = new Checks
    val fits = if (ctx.w.spark) 1 else 3
    ctx.prepare()
    val first = ctx.fit()
    val firstFp = fingerprint(first)
    checkFit(ctx, checks, first, firstFp)
    val plans = mutable.LinkedHashSet(firstFp)

    // what a fit holds inside its calls: a fit with forced full collections
    // in between, before the traced fits keep their inputs alive
    val (sampled, sampledPeak) = Jvm.peakHeapAfterGc(heapSampleMs(ctx.w))(ctx.fit())
    checkFit(ctx, checks, sampled, firstFp)
    plans += fingerprint(sampled)

    // untraced and traced fits alternate, so both see the same JIT and host state
    val untracedMs = ArrayBuffer.empty[Double]
    val traced = (1 to fits).map { _ =>
      Jvm.liveHeapBytes()
      val tu = System.nanoTime()
      val untraced = ctx.fit()
      untracedMs += ms(tu)
      checkFit(ctx, checks, untraced, firstFp)
      plans += fingerprint(untraced)

      val e = new CapturingEngine(ctx.newEngine(), ctx.spark.map(_.sparkContext))
      Jvm.liveHeapBytes()
      var r: SafeResult = null
      var runMs, alloc = 0.0
      var gc = (0L, 0L)
      val jobs = ctx.jobsDuring {
        val (gcCount0, gcMs0) = Jvm.gc()
        val alloc0 = Jvm.threadAllocatedBytes()
        val t0 = System.nanoTime()
        r = ctx.fitThrough(e)
        runMs = ms(t0)
        alloc = (Jvm.threadAllocatedBytes() - alloc0).toDouble
        val (gcCount1, gcMs1) = Jvm.gc()
        gc = (gcCount1 - gcCount0, gcMs1 - gcMs0)
      }
      checkFit(ctx, checks, r, firstFp)
      plans += fingerprint(r)
      val spanMs = e.spanNanos.map { case (k, v) => k -> v / 1e6 }
      checks(spanMs.values.sum <= runMs, s"engine spans ${spanMs.values.sum} ms exceed Safe.run $runMs ms")
      val total = jobs.values.foldLeft(SparkCounts.Zero)(_ + _)
      def spanJobs(s: String): Double = jobs.get(s).map(_.jobs.toDouble).getOrElse(0.0)
      val m = Map[String, Double](
        "safe.run_ms" -> runMs,
        "safe.self_ms" -> (runMs - spanMs.values.sum),
        "safe.add_generated_ms" -> spanMs.getOrElse("add_generated", 0.0),
        "safe.gbdt_ms" -> spanMs.getOrElse("gbdt", 0.0),
        "safe.scoring_matrix_ms" -> spanMs.getOrElse("scoring_matrix", 0.0),
        "safe.iv_ms" -> spanMs.getOrElse("iv", 0.0),
        "safe.corr_ms" -> spanMs.getOrElse("corr", 0.0),
        "safe.gbdt_calls" -> e.spanCalls.getOrElse("gbdt", 0).toDouble,
        "gbdt.spark_jobs" -> spanJobs("gbdt"),
        "iv.spark_jobs" -> spanJobs("iv"),
        "corr.spark_jobs" -> spanJobs("corr"),
        "spark.jobs" -> total.jobs.toDouble,
        "spark.tasks" -> total.tasks.toDouble,
        "spark.task_deserialize_ms" -> total.deserializeMs.toDouble,
        "spark.executor_run_ms" -> total.runMs.toDouble,
        "jvm.alloc_mb" -> alloc / 1048576.0,
        "jvm.gc_count" -> gc._1.toDouble,
        "jvm.gc_ms" -> gc._2.toDouble)
      val gbdt = gbdtLayer(e, jobs.getOrElse("gbdt", SparkCounts.Zero), spanMs.getOrElse("gbdt", 0.0), checks)
      (m ++ gbdt, e, r)
    }

    val (_, lastEngine, lastResult) = traced.last
    val perFit = traced.map(_._1)
    val medians = perFit.head.keys.map(k => k -> median(perFit.map(_(k)))).toMap
    val report = lastResult.reports.last
    val counts = Map[String, Double](
      "trace.overhead_ms" -> (medians("safe.run_ms") - median(untracedMs.toSeq)),
      "safe.rows" -> ctx.train.rows.toDouble,
      "safe.features" -> ctx.train.cols.toDouble,
      "safe.combos" -> report.combosMined.toDouble,
      "safe.generated" -> report.generated.toDouble,
      "safe.candidates" -> report.candidates.toDouble,
      "safe.after_iv" -> report.afterIv.toDouble,
      "safe.after_corr" -> report.afterCorr.toDouble,
      "safe.selected" -> report.selected.toDouble,
      "safe.plan_variants" -> plans.size.toDouble,
      "heap.sampled_peak_mb" -> sampledPeak / 1048576.0)
    Map("metrics" -> (medians ++ counts ++ replayMining(lastEngine) ++ psiLayer(ctx, ctx.referencePlan())),
      "plans" -> plans.toSeq) ++ checks.json
  }

  /** Histogram passes and binning of the traced fit's GBDT calls. On the
    * local engine every captured call is retrained over a counting histogram
    * backend, and the replayed model must equal the captured one. On Spark
    * the passes are the `treeAggregate` jobs the listener saw in the GBDT
    * span, and binning is the rest of that span.
    */
  private def gbdtLayer(e: CapturingEngine, gbdtJobs: SparkCounts, gbdtMs: Double,
                        checks: Checks): Map[String, Double] = {
    val local = e.gbdtCalls.flatMap(call => call.data.map(call -> _))
    if (local.isEmpty)
      return Map("gbdt.hist_calls" -> gbdtJobs.histJobs.toDouble, "gbdt.hist_ms" -> gbdtJobs.histMs.toDouble,
        "gbdt.binning_ms" -> (gbdtMs - gbdtJobs.histMs))
    var calls = 0
    var histNanos = 0L
    var binNanos = 0L
    local.foreach { case (call, full) =>
      val p = cfg.gbdt
      val m = full.selectNames(call.names)
      val t0 = System.nanoTime()
      val edges = Binning.fitLocal(m, p.maxBins)
      val bins = Binning.applyLocal(m, edges)
      binNanos += System.nanoTime() - t0
      val hist = new CountingHist(new LocalHist(bins, m.y))
      val model = Gbdt.train(hist, edges, m.names, p)
      calls += hist.calls
      histNanos += hist.nanos
      checks(sameTrees(model, call.model), "replayed GBDT differs from the traced one")
    }
    Map("gbdt.hist_calls" -> calls.toDouble, "gbdt.hist_ms" -> histNanos / 1e6,
      "gbdt.binning_ms" -> binNanos / 1e6)
  }

  private def sameTrees(a: GbdtModel, b: GbdtModel): Boolean =
    a.trees.map(_.toSeq).toSeq == b.trees.map(_.toSeq).toSeq

  /** Path mining and gain-ratio scoring (Algorithm 2) on the first captured
    * model and scoring matrix — the part of `Safe.run` that is not an engine call.
    */
  private def replayMining(e: CapturingEngine): Map[String, Double] = {
    val model = e.gbdtCalls.head.model
    val scoring = e.scoring.getOrElse(sys.error("no scoring matrix captured"))
    val gamma = if (cfg.gamma > 0) cfg.gamma else model.names.length
    val single = cfg.unaryOps.nonEmpty
    val pairs = cfg.binaryOps.nonEmpty
    PathMining.topCombos(model, scoring, gamma, single, pairs)
    val t0 = System.nanoTime()
    PathMining.topCombos(model, scoring, gamma, single, pairs)
    val t = ms(t0)
    Map("mining.ms" -> t, "mining.paths" -> model.paths.length.toDouble,
      "mining.combos" -> PathMining.combosFromPaths(model.paths, model.names, single, pairs).length.toDouble)
  }

  /** Ψ's size, and on spark-fit the jobs one forced batch transform starts. */
  private def psiLayer(ctx: Ctx, plan: FeaturePlan): Map[String, Double] = {
    val jobs = ctx.spark.map { s =>
      val testDf = ctx.test.toDF(s).cache()
      testDf.count()
      val started = ctx.jobsDuring(forceTransform(plan, testDf))
      testDf.unpersist()
      started.values.map(_.jobs).sum.toDouble
    }.getOrElse(0.0)
    Map("psi.generated" -> plan.neededGenerated.length.toDouble, "psi.width" -> plan.width.toDouble,
      "psi.spark_jobs" -> jobs)
  }
}
