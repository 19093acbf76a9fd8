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
  * `RDD[(Array[Byte], Double)]` and aggregates with `treeAggregate` — the
  * distributed path used for the business-scale tables. Both return
  * bit-identical histograms, which the test suite asserts.
  */
trait HistBackend {

  def numRows: Long

  /** Gradient/hessian histograms for every frontier node of the tree under
    * construction, under logistic loss with margins from `prevTrees`.
    *
    * @param prevTrees finalized trees of the model so far
    * @param partial   nodes of the tree being grown (contains Pending nodes)
    * @param pending   ids of the Pending nodes (the frontier)
    * @param offsets   per-feature offset into the flat bin axis
    * @param totalBins sum of per-feature bin counts
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

  /** Inverse map nodeId → frontier position (-1 elsewhere). */
  private[ml] def pendingPositions(partialLen: Int, pending: Array[Int]): Array[Int] = {
    val pos = Array.fill(partialLen)(-1)
    var k = 0
    while (k < pending.length) { pos(pending(k)) = k; k += 1 }
    pos
  }

  /** One row's step of a histogram pass, shared by both backends: route the
    * binned row to its frontier node and add its logistic gradient and
    * hessian to that node's bins in `acc` (g in the first half, h in the
    * second). Rows on a finished leaf add nothing. Allocation-free.
    */
  private[ml] def accumulate(
      acc: Array[Double], rowBins: Array[Byte], label: Double,
      prevTrees: Array[Array[Node]], partial: Array[Node], pendingPos: Array[Int],
      offsets: Array[Int], totalBins: Int): Unit = {
    val nodeId = TreeOps.routePending(partial, rowBins)
    if (nodeId >= 0) {
      val p = Metrics.sigmoid(TreeOps.margin(prevTrees, rowBins))
      val grad = p - label
      val hess = math.max(p * (1.0 - p), 1e-16)
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

/** Driver-side backend over pre-binned rows. */
final class LocalHist(bins: Array[Array[Byte]], labels: Array[Double]) extends HistBackend {
  require(bins.length == labels.length, "bins/labels length mismatch")

  override def numRows: Long = bins.length.toLong

  override def histograms(
      prevTrees: Array[Array[Node]],
      partial: Array[Node],
      pending: Array[Int],
      offsets: Array[Int],
      totalBins: Int): (Array[Array[Double]], Array[Array[Double]]) = {
    val flat = new Array[Double](2 * pending.length * totalBins)
    val pos = HistBackend.pendingPositions(partial.length, pending)
    var i = 0
    while (i < bins.length) {
      HistBackend.accumulate(flat, bins(i), labels(i), prevTrees, partial, pos, offsets, totalBins)
      i += 1
    }
    HistBackend.unflatten(flat, pending.length, totalBins)
  }
}

/** Distributed backend: binned rows live in an RDD, statistics are merged
  * with `treeAggregate` so the driver only ever sees O(#nodes × #bins).
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
    val flat = rdd.treeAggregate(new Array[Double](2 * pending.length * totalBins))(
      seqOp = { (acc, row) =>
        HistBackend.accumulate(acc, row._1, row._2, prevTrees, partial, pos, offsets, totalBins)
        acc
      },
      combOp = SparkRows.sumInto)
    HistBackend.unflatten(flat, pending.length, totalBins)
  }
}
