package repro.core.baselines

import repro.core.Operators.BinaryOp
import repro.core.{FeaturePlan, GenFeature, Operators}
import repro.ml.{Binning, LocalMatrix, Metrics}
import scala.util.Random

/** FCTree comparator [28].
  *
  * A single decision tree is grown greedily; at every node the candidate
  * splitters are the original features plus `nCand` randomly *constructed*
  * features (random pair × random operator). Splits are chosen by
  * information gain; constructed features chosen at internal nodes are the
  * algorithm's output, reduced to the cap by their best observed gain. The
  * emitted feature set is originals ∪ top constructed (≤ maxOutFactor·M
  * total), matching the paper's "reduced to 2M" comparison protocol.
  */
object FcTree {

  final case class FcTreeConfig(
      ops: Seq[BinaryOp] = Operators.basicArithmetic,
      nCand: Int = 30,
      maxDepth: Int = 8,
      minSamplesLeaf: Int = 10,
      bins: Int = 10,
      maxOutFactor: Double = 2.0,
      seed: Long = 0)

  def fit(m: LocalMatrix, cfg: FcTreeConfig = FcTreeConfig()): FeaturePlan = {
    val rng = new Random(cfg.seed)
    val maxOut = math.max(m.cols, math.ceil(cfg.maxOutFactor * m.cols).toInt)
    // best info gain observed for each constructed feature that won a split
    val chosen = scala.collection.mutable.Map.empty[String, (GenFeature, Double)]
    // cache constructed columns by name to avoid recomputation across nodes
    val colCache = scala.collection.mutable.Map.empty[String, Array[Double]]

    def columnOf(g: GenFeature): Array[Double] =
      colCache.getOrElseUpdate(g.name, g.local(m.column))

    def randomConstructed(): GenFeature = {
      val i = rng.nextInt(m.cols)
      var j = rng.nextInt(m.cols)
      while (j == i) j = rng.nextInt(m.cols)
      val op = cfg.ops(rng.nextInt(cfg.ops.length))
      val (a, b) = if (m.names(i) < m.names(j)) (m.names(i), m.names(j)) else (m.names(j), m.names(i))
      GenFeature(op, Seq(a, b))
    }

    def build(idx: Array[Int], depth: Int): Unit = {
      if (depth >= cfg.maxDepth || idx.length < 2 * cfg.minSamplesLeaf) return
      val nPos = idx.count(m.y(_) > 0.5)
      if (nPos == 0 || nPos == idx.length) return
      val labels = idx.map(m.y)

      // candidates: all originals + nCand random constructed features
      var bestGain = 1e-9
      var bestVals: Array[Double] = null
      var bestThr = Double.NaN
      var bestGen: Option[GenFeature] = None
      for (j <- 0 until m.cols) {
        val vals = m.column(j)
        val (thr, gain) = bestSplitPoint(idx.map(vals), labels, cfg.bins)
        if (gain > bestGain) { bestGain = gain; bestVals = vals; bestThr = thr; bestGen = None }
      }
      for (_ <- 0 until cfg.nCand) {
        val g = randomConstructed()
        val vals = columnOf(g)
        val (thr, gain) = bestSplitPoint(idx.map(vals), labels, cfg.bins)
        if (gain > bestGain) {
          bestGain = gain; bestVals = vals; bestThr = thr; bestGen = Some(g)
        }
      }
      if (bestVals == null || bestThr.isNaN) return
      bestGen.foreach { g =>
        val prev = chosen.get(g.name).map(_._2).getOrElse(0.0)
        if (bestGain > prev) chosen(g.name) = (g, bestGain)
      }
      val (l, r) = idx.partition(i => bestVals(i) <= bestThr)
      if (l.nonEmpty && r.nonEmpty) {
        build(l, depth + 1)
        build(r, depth + 1)
      }
    }

    build(m.y.indices.toArray, 0)
    val topGen = chosen.values.toSeq.sortBy { case (g, s) => (-s, g.name) }
      .take(math.max(0, maxOut - m.cols)).map(_._1)
    FeaturePlan(topGen, m.names.toSeq ++ topGen.map(_.name))
  }

  /** Best single-threshold info gain of `values` restricted to `idx` rows —
    * exposed for tests (the split criterion used in `fit`).
    */
  def gainOf(labels: Array[Double], values: Array[Double], idx: Array[Int], bins: Int): Double =
    bestSplitPoint(idx.map(values), idx.map(labels), bins)._2

  /** (threshold, information gain) of the best binary split of one node's
    * `values` against its `labels`, or (NaN, 0) if none separates them. One
    * counting pass per candidate threshold (the node's quantile edges).
    */
  private def bestSplitPoint(values: Array[Double], labels: Array[Double], bins: Int): (Double, Double) = {
    var bestGain = 0.0
    var bestThr = Double.NaN
    Binning.quantileEdges(values, bins).foreach { thr =>
      val (pos, neg) = Binning.classCounts(values, labels, Array(thr))
      if (pos(0) + neg(0) > 0 && pos(1) + neg(1) > 0) {
        val gain = Metrics.infoGain(pos, neg)
        if (gain > bestGain) { bestGain = gain; bestThr = thr }
      }
    }
    (bestThr, bestGain)
  }
}
