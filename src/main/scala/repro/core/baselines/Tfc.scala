package repro.core.baselines

import repro.core.Operators.BinaryOp
import repro.core.{FeaturePlan, GenFeature, Operators}
import repro.ml.{Binning, LocalMatrix, Metrics}

/** TFC comparator [27] (one iteration, as in the paper's experiments).
  *
  * Exhaustive generation: every unordered pair of current features × every
  * operator. Selection: plain information gain (equal-frequency binning) —
  * the new feature *pool* is the top `maxOut` of candidates ∪ originals,
  * so strong originals can be displaced by redundant generated features
  * (which is exactly why TFC degrades on several of the paper's datasets).
  *
  * Candidates are scored streaming, one column at a time — O(N·M²) time but
  * O(N) extra space, matching §IV-D's complexity analysis.
  */
object Tfc {

  final case class TfcConfig(
      ops: Seq[BinaryOp] = Operators.basicArithmetic,
      bins: Int = 10,
      maxOutFactor: Double = 2.0)

  /** Information gain of a candidate column against binary labels. */
  def infoGain(values: Array[Double], labels: Array[Double], bins: Int): Double = {
    val (pos, neg) = Binning.classCounts(values, labels, Binning.quantileEdges(values, bins))
    Metrics.infoGain(pos, neg)
  }

  def fit(m: LocalMatrix, cfg: TfcConfig = TfcConfig()): FeaturePlan = {
    val mOrig = m.cols
    val maxOut = math.max(1, math.ceil(cfg.maxOutFactor * mOrig).toInt)

    // score originals
    val scored = scala.collection.mutable.ArrayBuffer.empty[(Either[String, GenFeature], Double)]
    for (j <- 0 until mOrig)
      scored += ((Left(m.names(j)), infoGain(m.column(j), m.y, cfg.bins)))

    // score every generated candidate, streaming
    for (i <- 0 until mOrig; j <- (i + 1) until mOrig) {
      val a = m.column(i); val b = m.column(j)
      cfg.ops.foreach { op =>
        val vals = op.local(a, b)
        scored += ((Right(GenFeature(op, Seq(m.names(i), m.names(j)))), infoGain(vals, m.y, cfg.bins)))
      }
    }

    val top = scored.sortBy { case (f, s) =>
      (-s, f.fold(identity, _.name)) // deterministic tiebreak
    }.take(maxOut)
    val gen = top.collect { case (Right(g), _) => g }.toSeq
    val keep = top.map { case (f, _) => f.fold(identity, _.name) }.toSeq
    FeaturePlan(gen, keep)
  }
}
