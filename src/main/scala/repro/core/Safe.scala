package repro.core

import org.apache.spark.sql.DataFrame
import repro.ml.{Binning, Gbdt, GbdtModel, GbdtParams, LocalMatrix, Rows, SparkRows}
import repro.core.Operators.{BinaryOp, UnaryOp}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** How feature combinations are chosen in the generation stage:
  * SAFE mines GBDT paths (the paper's contribution); RAND and IMP are the
  * paper's ablations (§V-A1) sharing the full selection pipeline.
  */
sealed trait ComboSource
case object MinedCombos extends ComboSource     // SAFE
case object RandomCombos extends ComboSource    // RAND: random original pairs
case object ImportantCombos extends ComboSource // IMP: random pairs of split features

/** SAFE hyper-parameters (paper defaults; §IV, §V). */
final case class SafeConfig(
    binaryOps: Seq[BinaryOp] = Operators.basicArithmetic,
    unaryOps: Seq[UnaryOp] = Nil,
    /** combinations kept by Algorithm 2; <= 0 means M (the feature count). */
    gamma: Int = 0,
    alpha: Double = InfoValue.DefaultAlpha,
    beta: Int = InfoValue.DefaultBins,
    theta: Double = Correlation.DefaultTheta,
    /** output cap = ceil(maxOutFactor × M_original); paper uses 2M. */
    maxOutFactor: Double = 2.0,
    nIter: Int = 1,
    gbdt: GbdtParams = GbdtParams(),
    /** rows sampled for gain-ratio scoring (a ranking heuristic): every row
      * when N ≤ cap, else exactly `cap` seeded rows, the same on both
      * engines. The sample also yields every bin edge (GBDT and IV). */
    igSampleCap: Int = 100000,
    seed: Long = 0)

/** Per-iteration audit trail (feature counts at each pipeline stage). */
final case class IterationReport(
    iter: Int, combosMined: Int, generated: Int,
    candidates: Int, afterIv: Int, afterCorr: Int, selected: Int)

final case class SafeResult(plan: FeaturePlan, reports: Seq[IterationReport])

/** The SAFE pipeline (Algorithm 1), written once over a statistics engine
  * with one implementation (`RowsEngine`): `LocalEngine` keeps a
  * column-major `LocalMatrix` on the driver (benchmark-grid fast path),
  * `SparkEngine` keeps rows distributed (business-scale path). For
  * N ≤ `igSampleCap` both engines' samples are every row, so `fitSpark`'s
  * plan equals `fitLocal`'s (generated features and keep order): GBDT
  * histograms and IV counts are exact sums, and only Pearson sums differ, in
  * their last bits, so only a |ρ| that close to θ could split the plans.
  * For N > cap both engines sample the same `cap` rows (`samplePositions`),
  * so the same holds at every N (`SafeSpec` tests both).
  */
object Safe {

  /** Statistics provider for one dataset; mutated as features are added. */
  trait Engine {
    def originalNames: Seq[String]
    def existingNames: Set[String]
    def trainGbdt(names: Seq[String]): GbdtModel
    def addGenerated(gs: Seq[GenFeature]): Unit
    /** (sampled) local matrix over `names` for gain-ratio scoring. */
    def scoringMatrix(names: Seq[String]): LocalMatrix
    def ivAll(names: Seq[String], beta: Int): Map[String, Double]
    def corrMatrix(names: Seq[String]): Array[Array[Double]]
  }

  /** The one implementation of `Engine`, over original columns
    * `originalNames` whose rows live in `rows`. It is lazy: `addGenerated`
    * only records the features, and every statistic evaluates the generated
    * columns it reads through Ψ's one-pass evaluator (`FeaturePlan.applyLocal`).
    * Its sample, drawn on first use, gives every bin edge and the scoring
    * matrix: every original row when N ≤ `sampleCap`, else the `sampleCap`
    * rows at `samplePositions(N, sampleCap, seed)`, in row order. An engine
    * supplies only N and how to read its rows.
    */
  sealed abstract class RowsEngine(val originalNames: Seq[String], rows: Rows, sampleCap: Int, seed: Long)
      extends Engine {
    require(originalNames.distinct == originalNames, s"duplicate feature names: ${originalNames.diff(originalNames.distinct).mkString(", ")}")
    private val generated = ArrayBuffer.empty[GenFeature]
    var gbdtParams: GbdtParams = GbdtParams()

    /** N, the number of original rows. */
    protected def rowCount: Long
    /** Every original row, in row order. */
    protected def allRows: LocalMatrix
    /** The original rows at ascending `positions`, in row order. */
    protected def rowsAt(positions: Array[Int]): LocalMatrix

    private lazy val sample: LocalMatrix = {
      val n = rowCount
      require(n > 0, "SAFE needs at least one row")
      if (n <= sampleCap) allRows else rowsAt(samplePositions(math.toIntExact(n), sampleCap, seed))
    }

    /** Ψ from the original columns to `names`. */
    protected def plan(names: Seq[String]): FeaturePlan = FeaturePlan(generated.toSeq, names)
    /** The original columns followed by every generated one. */
    protected def allNames: Seq[String] = originalNames ++ generated.map(_.name)

    /** `names` over the rows and over the sample. When the sample is the
      * driver matrix itself, one evaluation serves both.
      */
    private def evaluate(names: Seq[String]): (Rows, LocalMatrix) = {
      val p = plan(names)
      val s = p.applyLocal(sample)
      rows match {
        case Rows.Local(m) if m eq sample => (Rows.Local(s), s)
        case _ => (rows.map(p.applyLocal), s)
      }
    }

    def existingNames: Set[String] = allNames.toSet
    def addGenerated(gs: Seq[GenFeature]): Unit = generated ++= gs
    def scoringMatrix(names: Seq[String]): LocalMatrix = plan(names).applyLocal(sample)
    def trainGbdt(names: Seq[String]): GbdtModel = {
      val (r, s) = evaluate(names)
      Gbdt.fit(r, names.toArray, Binning.fitLocal(s, gbdtParams.maxBins), gbdtParams)
    }
    def ivAll(names: Seq[String], beta: Int): Map[String, Double] = {
      val (r, s) = evaluate(names)
      InfoValue.ivAll(r, names, Binning.fitLocal(s, beta))
    }
    def corrMatrix(names: Seq[String]): Array[Array[Double]] =
      Correlation.matrix(rows.map(plan(names).applyLocal), names)
  }

  /** Driver-side engine over `initial`, whose rows are its matrix rows. */
  final class LocalEngine(initial: LocalMatrix, sampleCap: Int, seed: Long)
      extends RowsEngine(initial.names.toSeq, Rows.Local(initial), sampleCap, seed) {
    protected def rowCount: Long = initial.rows
    protected def allRows: LocalMatrix = initial
    protected def rowsAt(positions: Array[Int]): LocalMatrix = initial.takeRows(positions)
    /** `allNames` over every row of `initial`. */
    def current: LocalMatrix = plan(allNames).applyLocal(initial)
  }

  /** Distributed engine over the original frame, whose rows are the frame's
    * rows in partition-then-row order. Its statistics run the local kernels
    * on the frame's row blocks (`SparkRows.blocks`) in Spark jobs that only
    * count (GBDT histograms, IV bins, Pearson sums); its sample is collected
    * to the driver.
    */
  final class SparkEngine(df: DataFrame, labelCol: String, sampleCap: Int, seed: Long)
      extends RowsEngine(SparkRows.featureNames(df, labelCol).toSeq, Rows.Blocks(SparkRows.blocks(df, labelCol)),
        sampleCap, seed) {
    protected def rowCount: Long = df.count()
    protected def allRows: LocalMatrix = LocalMatrix.fromDF(df, labelCol)
    protected def rowsAt(positions: Array[Int]): LocalMatrix = SparkRows.rowsAt(df, labelCol, positions)
  }

  /** The one sample rule: `cap` distinct row positions out of 0 until `n`,
    * ascending: the first `cap` entries of a Fisher–Yates shuffle of 0 until
    * `n` driven by `new Random(seed)`, the same draws `Random.shuffle` makes.
    */
  private[core] def samplePositions(n: Int, cap: Int, seed: Long): Array[Int] = {
    val rng = new Random(seed)
    val p = Array.range(0, n)
    var i = n
    while (i >= 2) {
      val k = rng.nextInt(i)
      val t = p(i - 1); p(i - 1) = p(k); p(k) = t
      i -= 1
    }
    val s = p.take(cap)
    java.util.Arrays.sort(s)
    s
  }

  /** SAFE on driver-side data (the paper's benchmark-machine setting). */
  def fitLocal(m: LocalMatrix, cfg: SafeConfig = SafeConfig(),
               variant: ComboSource = MinedCombos): SafeResult =
    runOn(new LocalEngine(m, cfg.igSampleCap, cfg.seed), cfg, variant)

  /** SAFE with distributed statistics (business-scale setting). The input
    * DataFrame should be cached by the caller; it is scanned repeatedly.
    */
  def fitSpark(df: DataFrame, labelCol: String = "label",
               cfg: SafeConfig = SafeConfig(),
               variant: ComboSource = MinedCombos): SafeResult =
    runOn(new SparkEngine(df, labelCol, cfg.igSampleCap, cfg.seed), cfg, variant)

  private def runOn(engine: RowsEngine, cfg: SafeConfig, variant: ComboSource): SafeResult = {
    engine.gbdtParams = cfg.gbdt
    run(engine, cfg, variant)
  }

  /** Algorithm 1. */
  def run(engine: Engine, cfg: SafeConfig, variant: ComboSource): SafeResult = {
    val mOrig = engine.originalNames.length
    val gamma = if (cfg.gamma > 0) cfg.gamma else mOrig
    val maxOut = math.max(1, math.ceil(cfg.maxOutFactor * mOrig).toInt)
    var active: Seq[String] = engine.originalNames
    val allGen = ArrayBuffer.empty[GenFeature]
    val reports = ArrayBuffer.empty[IterationReport]

    for (iter <- 1 to cfg.nIter) {
      val rng = new Random(cfg.seed * 7919 + iter)

      // -- feature generation: pick combinations (§IV-B)
      val combos: Seq[PathMining.Combo] = variant match {
        case MinedCombos =>
          val model = engine.trainGbdt(active)
          PathMining
            .topCombos(model, engine.scoringMatrix(active), gamma,
              includeSingles = cfg.unaryOps.nonEmpty, includePairs = cfg.binaryOps.nonEmpty)
            .map(_.combo)
        case RandomCombos =>
          randomPairs(active, gamma, rng) ++
            (if (cfg.unaryOps.nonEmpty) randomSingles(active, gamma, rng) else Nil)
        case ImportantCombos =>
          val model = engine.trainGbdt(active)
          val split = model.splitFeatures.map(model.names(_)).toSeq
          val pool = if (split.length >= 2) split else active
          randomPairs(pool, gamma, rng) ++
            (if (cfg.unaryOps.nonEmpty) randomSingles(pool, gamma, rng) else Nil)
      }

      // -- apply operators (§IV-B3)
      val existing = scala.collection.mutable.Set.empty[String] ++ engine.existingNames
      val newFeats = ArrayBuffer.empty[GenFeature]
      combos.foreach { c =>
        val ops: Seq[GenFeature] = c.features match {
          case Seq(a)    => cfg.unaryOps.map(op => GenFeature(op, Seq(a)))
          case Seq(a, b) => cfg.binaryOps.map(op => GenFeature(op, Seq(a, b)))
          case _         => Nil // higher arities need ternary+ operators (not configured)
        }
        ops.foreach(g => if (existing.add(g.name)) newFeats += g)
      }
      engine.addGenerated(newFeats.toSeq)
      allGen ++= newFeats

      // -- feature selection (§IV-C)
      val candidates = active ++ newFeats.map(_.name)
      val ivs = engine.ivAll(candidates, cfg.beta)
      val afterIv = InfoValue.filter(ivs, cfg.alpha, fallbackTop = math.min(maxOut, candidates.length))
      val afterCorr = Correlation.removeRedundant(afterIv, ivs, engine.corrMatrix(afterIv), cfg.theta)
      val selected =
        if (afterCorr.length <= maxOut) afterCorr
        else {
          val rankModel = engine.trainGbdt(afterCorr)
          val imp = rankModel.avgGainImportance.map { case (i, g) => rankModel.names(i) -> g }
          afterCorr
            .sortBy(n => (-imp.getOrElse(n, 0.0), -ivs.getOrElse(n, 0.0), n))
            .take(maxOut)
        }

      reports += IterationReport(iter, combos.length, newFeats.length,
        candidates.length, afterIv.length, afterCorr.length, selected.length)
      active = selected
    }
    SafeResult(FeaturePlan(allGen.toSeq, active), reports.toSeq)
  }

  /** γ distinct unordered random pairs (RAND / IMP ablations). */
  private[core] def randomPairs(names: Seq[String], gamma: Int, rng: Random): Seq[PathMining.Combo] = {
    if (names.length < 2) return Nil
    val maxPairs = names.length.toLong * (names.length - 1) / 2
    val want = math.min(gamma.toLong, maxPairs).toInt
    val seen = scala.collection.mutable.LinkedHashSet.empty[(String, String)]
    var guard = 0
    while (seen.size < want && guard < want * 50 + 100) {
      val i = rng.nextInt(names.length)
      var j = rng.nextInt(names.length)
      while (j == i) j = rng.nextInt(names.length)
      val p = if (names(i) < names(j)) (names(i), names(j)) else (names(j), names(i))
      seen += p
      guard += 1
    }
    seen.toSeq.map { case (a, b) => PathMining.Combo(Seq(a, b), Map.empty) }
  }

  private[core] def randomSingles(names: Seq[String], gamma: Int, rng: Random): Seq[PathMining.Combo] =
    rng.shuffle(names.toList).take(gamma).map(n => PathMining.Combo(Seq(n), Map.empty))
}
