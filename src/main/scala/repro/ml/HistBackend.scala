package repro.ml

import org.apache.spark.rdd.RDD

/** Flat tree-node encoding shared by the GBDT trainer and its backends.
  *
  * `feature >= 0` → internal split: rows with `bin(feature) <= binThr` go to
  * `left`, the rest to `right`. `feature == Leaf` → finalized leaf with
  * `weight` (already scaled by the learning rate). `feature == Pending` →
  * frontier node still being grown this level.
  */
final case class Node(
    feature: Int,
    binThr: Int,
    left: Int,
    right: Int,
    weight: Double,
    gain: Double,
    cover: Double) extends Serializable

object Node {
  val Leaf: Int = -1
  val Pending: Int = -2

  def pending: Node = Node(Pending, -1, -1, -1, 0.0, 0.0, 0.0)
  def leaf(weight: Double, cover: Double): Node = Node(Leaf, -1, -1, -1, weight, 0.0, cover)
}

/** Pure traversal helpers (executed on Spark executors — keep allocation-free). */
object TreeOps {

  /** Leaf weight of a finalized tree for a binned row. */
  def predict(nodes: Array[Node], bins: Array[Byte]): Double = {
    var i = 0
    while (nodes(i).feature >= 0) {
      val nd = nodes(i)
      i = if ((bins(nd.feature) & 0xff) <= nd.binThr) nd.left else nd.right
    }
    nodes(i).weight
  }

  /** Route a row through a partially built tree; returns the Pending node id
    * the row lands on, or -1 if it reaches a finalized leaf.
    */
  def routePending(nodes: Array[Node], bins: Array[Byte]): Int = {
    var i = 0
    while (true) {
      val nd = nodes(i)
      if (nd.feature == Node.Pending) return i
      if (nd.feature == Node.Leaf) return -1
      i = if ((bins(nd.feature) & 0xff) <= nd.binThr) nd.left else nd.right
    }
    -1 // unreachable
  }

  /** Boosting margin of a binned row under finalized `trees` (base score 0). */
  def margin(trees: Array[Array[Node]], bins: Array[Byte]): Double = {
    var s = 0.0
    var t = 0
    while (t < trees.length) { s += predict(trees(t), bins); t += 1 }
    s
  }
}

/** Histogram-statistics provider for the GBDT trainer.
  *
  * One implementation keeps binned rows on the driver (fast path for the
  * paper's single-machine benchmarks); the other holds an
  * `RDD[(Array[Byte], Double)]` and sums each pass in one Spark job
  * (`SparkRows.sumPartitions`) — the distributed path used for the
  * business-scale tables. Both add the same per-row terms, each a multiple
  * of 2^-30 (`HistBackend.exact`), so every sum over fewer than 2^23 rows is
  * exact: how Spark's partition partials are grouped does not matter, and
  * `GbdtSpec` checks that the two grow `==` trees.
  */
trait HistBackend {

  def numRows: Long

  /** Gradient/hessian histograms for every frontier node of the tree under
    * construction, under logistic loss with margins from `prevTrees`.
    *
    * A backend may cache each row's margin under a prefix of `prevTrees` it
    * has already seen (the same tree arrays, compared by reference) and fold
    * in only the trees after it, so finalized trees must not be mutated.
    *
    * @param prevTrees finalized trees of the model so far
    * @param partial   nodes of the tree being grown (contains Pending nodes)
    * @param pending   ids of the Pending nodes (the frontier)
    * @param offsets   per-feature offset into the flat bin axis
    * @param totalBins sum of the features' bin counts
    * @return (g, h): per frontier node, flat arrays indexed offsets(f)+bin
    */
  def histograms(
      prevTrees: Array[Array[Node]],
      partial: Array[Node],
      pending: Array[Int],
      offsets: Array[Int],
      totalBins: Int): (Array[Array[Double]], Array[Array[Double]])
}

object HistBackend {

  private val Q = 1.0 / (1 << 30)

  /** `v` rounded to a multiple of Q = 2^-30. Fewer than 2^23 such values in
    * [−1, 1] sum to a multiple of Q below 2^23, which a double holds exactly,
    * so every order and grouping gives the same double (quantized GBDT
    * training, Shi et al., NeurIPS 2022, at 30 bits for exactness).
    */
  private[ml] def exact(v: Double): Double = math.rint(v / Q) * Q

  /** Inverse map nodeId → frontier position (-1 elsewhere). */
  private[ml] def pendingPositions(partialLen: Int, pending: Array[Int]): Array[Int] = {
    val pos = Array.fill(partialLen)(-1)
    var k = 0
    while (k < pending.length) { pos(pending(k)) = k; k += 1 }
    pos
  }

  /** One row's step of a histogram pass, shared by both backends: route the
    * binned row to its frontier node and add its logistic gradient and
    * hessian at `margin` (the row's `TreeOps.margin` under the finalized
    * trees), each rounded by `exact`, to that node's bins in `acc` (g in the
    * first half, h in the second). The hessian is at least 2^-30, so it stays
    * positive. Rows on a finished leaf add nothing. Allocation-free.
    */
  private[ml] def accumulate(
      acc: Array[Double], rowBins: Array[Byte], label: Double, margin: Double,
      partial: Array[Node], pendingPos: Array[Int],
      offsets: Array[Int], totalBins: Int): Unit = {
    val nodeId = TreeOps.routePending(partial, rowBins)
    if (nodeId >= 0) {
      val p = Metrics.sigmoid(margin)
      val grad = exact(p - label)
      val hess = math.max(exact(p * (1.0 - p)), Q)
      val half = acc.length / 2
      val base = pendingPos(nodeId) * totalBins
      var f = 0
      while (f < offsets.length) {
        val idx = base + offsets(f) + (rowBins(f) & 0xff)
        acc(idx) += grad
        acc(half + idx) += hess
        f += 1
      }
    }
  }

  private[ml] def unflatten(flat: Array[Double], nPending: Int, totalBins: Int)
      : (Array[Array[Double]], Array[Array[Double]]) = {
    val g = Array.tabulate(nPending)(k => java.util.Arrays.copyOfRange(flat, k * totalBins, (k + 1) * totalBins))
    val h = Array.tabulate(nPending)(k =>
      java.util.Arrays.copyOfRange(flat, (nPending + k) * totalBins, (nPending + k + 1) * totalBins))
    (g, h)
  }
}

/** Driver-side backend over pre-binned rows. It keeps each row's margin
  * under the trees it has seen, so a pass folds in only the trees finished
  * since the last one instead of re-scoring every row under all of them.
  */
final class LocalHist(bins: Array[Array[Byte]], labels: Array[Double]) extends HistBackend {
  require(bins.length == labels.length, "bins/labels length mismatch")

  override def numRows: Long = bins.length.toLong

  /** `margins(i)` is row i's `TreeOps.margin` under `folded`. */
  private val margins = new Array[Double](bins.length)
  private var folded = Array.empty[Array[Node]]

  /** Brings `margins` to `prevTrees`: keeps them if `folded` is a prefix of
    * it, else starts from 0, then adds each later tree in order, as
    * `TreeOps.margin` does, so the sums are the same doubles.
    */
  private def foldIn(prevTrees: Array[Array[Node]]): Unit = {
    val isPrefix = folded.length <= prevTrees.length &&
      folded.indices.forall(t => folded(t) eq prevTrees(t))
    if (!isPrefix) { java.util.Arrays.fill(margins, 0.0); folded = Array.empty }
    var t = folded.length
    while (t < prevTrees.length) {
      val tree = prevTrees(t)
      var i = 0
      while (i < bins.length) { margins(i) += TreeOps.predict(tree, bins(i)); i += 1 }
      t += 1
    }
    folded = prevTrees.clone()
  }

  override def histograms(
      prevTrees: Array[Array[Node]],
      partial: Array[Node],
      pending: Array[Int],
      offsets: Array[Int],
      totalBins: Int): (Array[Array[Double]], Array[Array[Double]]) = {
    foldIn(prevTrees)
    val flat = new Array[Double](2 * pending.length * totalBins)
    val pos = HistBackend.pendingPositions(partial.length, pending)
    var i = 0
    while (i < bins.length) {
      HistBackend.accumulate(flat, bins(i), labels(i), margins(i), partial, pos, offsets, totalBins)
      i += 1
    }
    HistBackend.unflatten(flat, pending.length, totalBins)
  }
}

/** Distributed backend: binned rows live in an RDD, and each pass is one
  * `SparkRows.sumPartitions` job, so the driver only ever sees one
  * O(#nodes × #bins) partial per partition; the sums are exact, so they are
  * `LocalHist`'s doubles in any merge order.
  * Margins are recomputed in each pass: an RDD of margins rebuilt for every
  * tree measured slower than the re-scoring it saves (ROADMAP item 2).
  */
final class SparkHist(rdd: RDD[(Array[Byte], Double)]) extends HistBackend {

  override lazy val numRows: Long = rdd.count()

  override def histograms(
      prevTrees: Array[Array[Node]],
      partial: Array[Node],
      pending: Array[Int],
      offsets: Array[Int],
      totalBins: Int): (Array[Array[Double]], Array[Array[Double]]) = {
    val pos = HistBackend.pendingPositions(partial.length, pending)
    val flat = SparkRows.sumPartitions(rdd, 2 * pending.length * totalBins) { (acc, row) =>
      HistBackend.accumulate(acc, row._1, row._2, TreeOps.margin(prevTrees, row._1),
        partial, pos, offsets, totalBins)
    }
    HistBackend.unflatten(flat, pending.length, totalBins)
  }
}
