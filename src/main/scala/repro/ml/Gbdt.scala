package repro.ml

import scala.collection.mutable.ArrayBuffer

/** XGBoost-lite hyper-parameters (paper defaults, §IV-D/§VI of DESIGN.md). */
final case class GbdtParams(
    numTrees: Int = 20,
    maxDepth: Int = 3,
    eta: Double = 0.3,
    lambda: Double = 1.0,
    minChildHess: Double = 1e-3,
    maxBins: Int = 32,
    minSplitGain: Double = 1e-6) {
  require(maxBins >= 2 && maxBins <= 127, "maxBins must be in [2, 127] (bins are bytes)")
  require(numTrees >= 1 && maxDepth >= 1)
}

/** A root→leaf-parent path of one tree: the ordered distinct split features
  * and, per feature, the raw split thresholds seen along the path. This is
  * the raw material of SAFE's feature-combination mining (§IV-B1).
  */
final case class TreePath(features: Array[Int], splitValues: Map[Int, Array[Double]])

/** Trained boosted-tree model (logistic objective, base margin 0). */
final case class GbdtModel(
    trees: Array[Array[Node]],
    edges: Array[Array[Double]],
    names: Array[String],
    params: GbdtParams) {

  /** P(y = 1) of each row of `m`, binned once with the model's training-time edges. */
  def predictProba(m: LocalMatrix): Array[Double] =
    Binning.applyLocal(m, edges).map(b => Metrics.sigmoid(TreeOps.margin(trees, b)))

  /** Features that split at least once (the paper's "split features"). */
  def splitFeatures: Array[Int] =
    trees.flatMap(_.collect { case n if n.feature >= 0 => n.feature }).distinct.sorted

  /** Importance = average gain across all splits using the feature (§IV-C3). */
  def avgGainImportance: Map[Int, Double] = {
    val acc = scala.collection.mutable.Map.empty[Int, (Double, Int)]
    for (t <- trees; n <- t if n.feature >= 0) {
      val (g, c) = acc.getOrElse(n.feature, (0.0, 0))
      acc(n.feature) = (g + n.gain, c + 1)
    }
    acc.map { case (f, (g, c)) => f -> g / c }.toMap
  }

  /** All root→leaf paths (distinct split features, per-path split values).
    * A leaf's path is trimmed at its parent, per the paper's definition of
    * p_j; degenerate single-node trees yield no paths.
    */
  def paths: Array[TreePath] = {
    val out = ArrayBuffer.empty[TreePath]
    for (nodes <- trees if nodes.length > 1) {
      def walk(i: Int, feats: List[Int], vals: Map[Int, List[Double]]): Unit = {
        val nd = nodes(i)
        if (nd.feature >= 0) {
          val thr = if (edges(nd.feature).nonEmpty)
            edges(nd.feature)(math.min(nd.binThr, edges(nd.feature).length - 1))
          else 0.0
          val feats2 = if (feats.contains(nd.feature)) feats else feats :+ nd.feature
          val vals2 = vals.updated(nd.feature, thr :: vals.getOrElse(nd.feature, Nil))
          walk(nd.left, feats2, vals2)
          walk(nd.right, feats2, vals2)
        } else if (feats.nonEmpty) {
          out += TreePath(feats.toArray, vals.map { case (f, v) => f -> v.distinct.sorted.toArray })
        }
      }
      walk(0, Nil, Map.empty)
    }
    out.toArray
  }
}

/** Histogram GBDT trainer. The statistics backend decides where the rows
  * live (driver arrays vs. an RDD); the split-finding logic is identical —
  * second-order logistic-loss gain as in XGBoost [32].
  */
object Gbdt {

  /** Train on a local matrix under its own `Binning.fitLocal` edges. */
  def fit(m: LocalMatrix, params: GbdtParams = GbdtParams()): GbdtModel =
    fit(Rows.Local(m), m.names, Binning.fitLocal(m, params.maxBins), params)

  /** Train on `rows` whose columns are `names`, in order, under per-feature
    * `edges`. Driver rows are binned into a `LocalHist`. Spark blocks are
    * binned with `Binning.applyLocal` inside their tasks, and the binned rows
    * are cached for the `SparkHist` passes; under the same edges the trees
    * are the driver's.
    */
  def fit(rows: Rows, names: Array[String], edges: Array[Array[Double]], params: GbdtParams): GbdtModel =
    rows match {
      case Rows.Local(m) =>
        train(new LocalHist(Binning.applyLocal(m, edges), m.y), edges, names, params)
      case Rows.Blocks(blocks) =>
        val binned = blocks.flatMap(b => Binning.applyLocal(b, edges).iterator.zip(b.y.iterator))
          .persist(org.apache.spark.storage.StorageLevel.MEMORY_AND_DISK)
        try train(new SparkHist(binned), edges, names, params)
        finally binned.unpersist(blocking = false)
    }

  /** Core level-wise trainer over any backend: one `histograms` call over
    * every feature per level of each tree, so a tree that reaches max depth
    * takes `maxDepth` passes. A split at depth `maxDepth − 1` makes its
    * children leaves at once, from the (G_L, H_L) its scan summed and the
    * parent's (G − G_L, H − H_L): the sums are exact (`HistBackend.exact`),
    * so these are the children's own totals. That needs fewer than 2^23 rows.
    */
  def train(backend: HistBackend, edges: Array[Array[Double]],
            names: Array[String], params: GbdtParams): GbdtModel = {
    require(backend.numRows < (1L << 23), s"exact histogram sums need fewer than 2^23 rows, got ${backend.numRows}")
    val binCounts = Binning.binCounts(edges)
    val offsets = binCounts.scanLeft(0)(_ + _).dropRight(1)
    val totalBins = binCounts.sum
    val trees = ArrayBuffer.empty[Array[Node]]
    def leaf(g: Double, h: Double): Node = Node.leaf(-params.eta * g / (h + params.lambda), h)

    var t = 0
    while (t < params.numTrees) {
      val partial = ArrayBuffer[Node](Node.pending)
      var depth = 0
      var pending = Array(0)
      while (pending.nonEmpty) {
        val (g, h) = backend.histograms(trees.toArray, partial.toArray, pending, offsets, totalBins)
        val lastLevel = depth == params.maxDepth - 1
        var k = 0
        while (k < pending.length) {
          val nodeId = pending(k)
          val (gTot, hTot) = totals(g(k), h(k), binCounts(0))
          bestSplit(g(k), h(k), offsets, binCounts, gTot, hTot, params) match {
            case Some(s) =>
              val li = partial.length
              partial += (if (lastLevel) leaf(s.gl, s.hl) else Node.pending)
              partial += (if (lastLevel) leaf(gTot - s.gl, hTot - s.hl) else Node.pending)
              partial(nodeId) = Node(s.feature, s.bin, li, li + 1, 0.0, s.gain, hTot)
            case None =>
              partial(nodeId) = leaf(gTot, hTot)
          }
          k += 1
        }
        pending = partial.indices.filter(partial(_).feature == Node.Pending).toArray
        depth += 1
      }
      trees += partial.toArray
      t += 1
    }
    GbdtModel(trees.toArray, edges, names, params)
  }

  /** Sum (G, H) of one node over the first feature's `bins0` bins. */
  private def totals(g: Array[Double], h: Array[Double], bins0: Int): (Double, Double) = {
    var gs = 0.0; var hs = 0.0
    var b = 0
    while (b < bins0) { gs += g(b); hs += h(b); b += 1 }
    (gs, hs)
  }

  /** Rows with `bin(feature) <= bin` go left; (gl, hl) is their (G, H). */
  private final case class Split(feature: Int, bin: Int, gain: Double, gl: Double, hl: Double)

  /** Best split of a node, or None if nothing clears the gain /
    * min-child-hessian bars. Gain is the standard second-order formula
    * ½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)].
    */
  private def bestSplit(g: Array[Double], h: Array[Double],
                        offsets: Array[Int], binCounts: Array[Int],
                        gTot: Double, hTot: Double, params: GbdtParams): Option[Split] = {
    val parentScore = gTot * gTot / (hTot + params.lambda)
    var best: Option[Split] = None
    var bestGain = params.minSplitGain
    var f = 0
    while (f < binCounts.length) {
      var gl = 0.0; var hl = 0.0
      var b = 0
      while (b < binCounts(f) - 1) { // last bin can't be a left side on its own
        gl += g(offsets(f) + b); hl += h(offsets(f) + b)
        val gr = gTot - gl; val hr = hTot - hl
        if (hl >= params.minChildHess && hr >= params.minChildHess) {
          val gain = 0.5 * (gl * gl / (hl + params.lambda) +
                            gr * gr / (hr + params.lambda) - parentScore)
          if (gain > bestGain) { bestGain = gain; best = Some(Split(f, b, gain, gl, hl)) }
        }
        b += 1
      }
      f += 1
    }
    best
  }
}
