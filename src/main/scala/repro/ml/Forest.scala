package repro.ml

import scala.util.Random

/** Random Forest and Extremely-randomized Trees — two of the paper's nine
  * evaluation classifiers. Both bin once and fit `numTrees` CARTs; scores
  * are averaged leaf probabilities.
  */
object Forest {

  final case class ForestParams(
      numTrees: Int = 20,
      maxDepth: Int = 10,
      minSamplesLeaf: Int = 2,
      maxBins: Int = 32)

  /** Every tree was fitted under `edges`, so rows are binned once for all. */
  final case class ForestModel(trees: Array[CartModel], edges: Array[Array[Double]]) {
    def predictProba(m: LocalMatrix): Array[Double] = {
      val bins = Binning.applyLocal(m, edges)
      val p = trees.map(_.predictBinned(bins))
      Array.tabulate(m.rows)(i => p.foldLeft(0.0)(_ + _(i)) / trees.length)
    }
  }

  def fitRandomForest(m: LocalMatrix, params: ForestParams = ForestParams(), seed: Long = 0): ForestModel =
    fit(m, params, seed, bootstrap = true, randomThresholds = false)

  def fitExtraTrees(m: LocalMatrix, params: ForestParams = ForestParams(), seed: Long = 0): ForestModel =
    fit(m, params, seed, bootstrap = false, randomThresholds = true)

  private def fit(m: LocalMatrix, params: ForestParams, seed: Long,
                  bootstrap: Boolean, randomThresholds: Boolean): ForestModel = {
    val edges = Binning.fitLocal(m, params.maxBins)
    val bins = Binning.applyLocal(m, edges)
    val mtry = math.max(1, math.round(math.sqrt(m.cols.toDouble)).toInt)
    val cartParams = CartParams(
      maxDepth = params.maxDepth, minSamplesLeaf = params.minSamplesLeaf,
      maxBins = params.maxBins, featureSubset = Some(mtry),
      randomThresholds = randomThresholds)
    val rng = new Random(seed)
    val trees = Array.fill(params.numTrees) {
      val treeSeed = rng.nextLong()
      if (bootstrap) {
        val bootRng = new Random(treeSeed)
        val idx = Array.fill(m.rows)(bootRng.nextInt(m.rows))
        Cart.fitBinned(idx.map(bins), idx.map(m.y), edges, cartParams, None, treeSeed)
      } else {
        Cart.fitBinned(bins, m.y, edges, cartParams, None, treeSeed)
      }
    }
    ForestModel(trees, edges)
  }
}

/** AdaBoost (discrete SAMME over shallow weighted CARTs) — evaluation
  * classifier "AB" in Table III.
  */
object AdaBoost {

  final case class AdaParams(rounds: Int = 30, stumpDepth: Int = 2, maxBins: Int = 32)

  /** Every stump was fitted under `edges`, so rows are binned once for all. */
  final case class AdaModel(stumps: Array[(CartModel, Double)], edges: Array[Array[Double]]) {
    /** Signed boosting margin, monotone in P(y=1) — valid AUC score. */
    def predictScore(m: LocalMatrix): Array[Double] = {
      val bins = Binning.applyLocal(m, edges)
      val acc = new Array[Double](m.rows)
      stumps.foreach { case (t, alpha) =>
        val p = t.predictBinned(bins)
        var i = 0
        while (i < acc.length) { acc(i) += alpha * (if (p(i) > 0.5) 1.0 else -1.0); i += 1 }
      }
      acc
    }
  }

  def fit(m: LocalMatrix, params: AdaParams = AdaParams(), seed: Long = 0): AdaModel = {
    val n = m.rows
    val edges = Binning.fitLocal(m, params.maxBins)
    val bins = Binning.applyLocal(m, edges)
    val cartParams = CartParams(maxDepth = params.stumpDepth, maxBins = params.maxBins)
    val w = Array.fill(n)(1.0 / n)
    val stumps = scala.collection.mutable.ArrayBuffer.empty[(CartModel, Double)]
    var r = 0
    var stop = false
    while (r < params.rounds && !stop) {
      val tree = Cart.fitBinned(bins, m.y, edges, cartParams, Some(w), seed + r)
      val probs = tree.predictBinned(bins)
      val preds = probs.map(p => if (p > 0.5) 1.0 else 0.0)
      var err = 0.0
      var i = 0
      while (i < n) { if (preds(i) != m.y(i)) err += w(i); i += 1 }
      err = math.max(1e-10, math.min(1 - 1e-10, err))
      if (err >= 0.5 && stumps.nonEmpty) stop = true // weak learner no better than chance
      else {
        val alpha = 0.5 * math.log((1 - err) / err)
        stumps += ((tree, alpha))
        var sum = 0.0
        i = 0
        while (i < n) {
          w(i) *= math.exp(if (preds(i) != m.y(i)) alpha else -alpha)
          sum += w(i); i += 1
        }
        i = 0
        while (i < n) { w(i) /= sum; i += 1 }
        if (err < 1e-9) stop = true // perfect fit; further rounds are degenerate
      }
      r += 1
    }
    AdaModel(stumps.toArray, edges)
  }
}
