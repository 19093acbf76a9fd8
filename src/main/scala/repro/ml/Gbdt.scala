package repro.ml

import org.apache.spark.rdd.RDD
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

  def numFeatures: Int = names.length

  /** Bin one raw row with the model's training-time edges. */
  def binRow(row: Array[Double]): Array[Byte] = {
    val b = new Array[Byte](edges.length)
    var j = 0
    while (j < edges.length) { b(j) = Binning.binOf(row(j), edges(j)).toByte; j += 1 }
    b
  }

  def predictMargin(row: Array[Double]): Double = TreeOps.margin(trees, binRow(row))

  def predictProba(row: Array[Double]): Double = Metrics.sigmoid(predictMargin(row))

  def predictProba(m: LocalMatrix): Array[Double] = m.x.map(predictProba)

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

  /** Train on a local matrix (driver-side histograms). */
  def fit(m: LocalMatrix, params: GbdtParams = GbdtParams()): GbdtModel = {
    val edges = Binning.fitLocal(m, params.maxBins)
    val bins = Binning.applyLocal(m, edges)
    train(new LocalHist(bins, m.y), edges, m.names, params)
  }

  /** Train with distributed histogram aggregation on row blocks whose
    * columns are `names`, in order, under per-feature `edges`
    * (`Binning.fitLocal` at `params.maxBins`; with `fit`'s edges the trees
    * are `fit`'s up to merge-order rounding). Each block is binned with
    * `Binning.applyLocal`, and its binned rows are cached for the passes.
    */
  def fitDF(blocks: RDD[LocalMatrix], names: Array[String], edges: Array[Array[Double]],
            params: GbdtParams = GbdtParams()): GbdtModel = {
    val bc = blocks.sparkContext.broadcast(edges)
    val rdd = blocks.flatMap(b => Binning.applyLocal(b, bc.value).iterator.zip(b.y.iterator))
      .persist(org.apache.spark.storage.StorageLevel.MEMORY_AND_DISK)
    try train(new SparkHist(rdd), edges, names, params)
    finally { rdd.unpersist(blocking = false); bc.destroy() }
  }

  /** Core level-wise trainer over any backend. */
  def train(backend: HistBackend, edges: Array[Array[Double]],
            names: Array[String], params: GbdtParams): GbdtModel = {
    val binCounts = Binning.binCounts(edges)
    val offsets = binCounts.scanLeft(0)(_ + _).dropRight(1)
    val totalBins = binCounts.sum
    val trees = ArrayBuffer.empty[Array[Node]]

    var t = 0
    while (t < params.numTrees) {
      val partial = ArrayBuffer[Node](Node.pending)
      var depth = 0
      var anyPending = true
      while (anyPending) {
        val pending = partial.indices.filter(partial(_).feature == Node.Pending).toArray
        if (pending.isEmpty) { anyPending = false }
        else {
          val (g, h) = backend.histograms(trees.toArray, partial.toArray, pending, offsets, totalBins)
          val atMaxDepth = depth >= params.maxDepth
          var k = 0
          while (k < pending.length) {
            val nodeId = pending(k)
            val (gTot, hTot) = totals(g(k), h(k), offsets, binCounts, 0)
            val split = if (atMaxDepth) None
                        else bestSplit(g(k), h(k), offsets, binCounts, gTot, hTot, params)
            split match {
              case Some((feat, bin, gain)) =>
                val li = partial.length
                partial += Node.pending
                partial += Node.pending
                partial(nodeId) = Node(feat, bin, li, li + 1, 0.0, gain, hTot)
              case None =>
                partial(nodeId) = Node.leaf(-params.eta * gTot / (hTot + params.lambda), hTot)
            }
            k += 1
          }
          depth += 1
        }
      }
      trees += partial.toArray
      t += 1
    }
    GbdtModel(trees.toArray, edges, names, params)
  }

  /** Sum (G, H) of one node from any single feature's histogram row. */
  private def totals(g: Array[Double], h: Array[Double],
                     offsets: Array[Int], binCounts: Array[Int], feat: Int): (Double, Double) = {
    var gs = 0.0; var hs = 0.0
    var b = 0
    while (b < binCounts(feat)) { gs += g(offsets(feat) + b); hs += h(offsets(feat) + b); b += 1 }
    (gs, hs)
  }

  /** Best (feature, binThr, gain) for a node, or None if nothing clears the
    * gain / min-child-hessian bars. Gain is the standard second-order
    * formula ½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)].
    */
  private def bestSplit(g: Array[Double], h: Array[Double],
                        offsets: Array[Int], binCounts: Array[Int],
                        gTot: Double, hTot: Double, params: GbdtParams): Option[(Int, Int, Double)] = {
    val parentScore = gTot * gTot / (hTot + params.lambda)
    var best: Option[(Int, Int, Double)] = None
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
          if (gain > bestGain) { bestGain = gain; best = Some((f, b, gain)) }
        }
        b += 1
      }
      f += 1
    }
    best
  }
}
