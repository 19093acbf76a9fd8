package repro.core

import org.apache.spark.rdd.RDD
import repro.ml.{LocalMatrix, SparkRows}

/** Pearson redundancy removal — Algorithm 4 and Table II of the paper.
  *
  * As printed, Algorithm 4 only ever *adds* a member of each correlated
  * pair and never emits uncorrelated features — a pseudocode bug. We
  * implement the stated intent ("if |ρ| > θ the feature with the smaller IV
  * is removed"): scan features in descending IV order and keep one iff its
  * |ρ| with every already-kept feature is ≤ θ.
  */
object Correlation {

  /** Table II rule of thumb: |ρ| > 0.8 = "extremely strong correlation". */
  val DefaultTheta = 0.8

  /** Full Pearson matrix of the named columns of a local matrix (Eq. 7). */
  def matrixLocal(m: LocalMatrix, names: Seq[String]): Array[Array[Double]] = {
    val acc = new Array[Double](sumsLength(names.length))
    addSums(acc, names.map(m.column).toArray, m.rows)
    fromSums(acc, names.length)
  }

  /** Distributed Pearson matrix over row blocks whose columns are `names`, in
    * order: one `treeAggregate` pass adding each block's sums with `addSums`.
    */
  def matrixSpark(blocks: RDD[LocalMatrix], names: Seq[String]): Array[Array[Double]] = {
    val c = names.length
    if (c == 0) return Array.empty
    val acc = blocks.treeAggregate(new Array[Double](sumsLength(c)))(
      seqOp = { (acc, b) => addSums(acc, Array.tabulate(c)(b.column), b.rows); acc },
      combOp = SparkRows.sumInto)
    fromSums(acc, c)
  }

  // Sums layout for c columns: [0,c) sums | [c,2c) squares |
  // [2c, 2c + c(c+1)/2) upper-triangle cross products, row-major | [last] n.
  private def sumsLength(c: Int): Int = 2 * c + c * (c + 1) / 2 + 1

  private def crossIndex(c: Int, i: Int, k: Int): Int = {
    val a = math.min(i, k)
    2 * c + a * c - a * (a - 1) / 2 + (math.max(i, k) - a)
  }

  /** Adds the sums of `n` rows of `cols` into `acc` (layout above). Every
    * cell continues from its current value row by row, so a partition's
    * blocks sum exactly as one pass over its rows would.
    */
  private def addSums(acc: Array[Double], cols: Array[Array[Double]], n: Int): Unit = {
    val c = cols.length
    var t = 2 * c
    var i = 0
    while (i < c) {
      val ci = cols(i)
      var s = acc(i)
      var sq = acc(c + i)
      var r = 0
      while (r < n) { s += ci(r); sq += ci(r) * ci(r); r += 1 }
      acc(i) = s
      acc(c + i) = sq
      var k = i
      while (k < c) {
        val ck = cols(k)
        var cross = acc(t)
        r = 0
        while (r < n) { cross += ci(r) * ck(r); r += 1 }
        acc(t) = cross
        t += 1
        k += 1
      }
      i += 1
    }
    acc(acc.length - 1) += n
  }

  private def fromSums(acc: Array[Double], c: Int): Array[Array[Double]] = {
    val n = acc(acc.length - 1)
    val out = Array.ofDim[Double](c, c)
    var i = 0
    while (i < c) {
      var k = 0
      while (k < c) {
        if (i == k) out(i)(k) = 1.0
        else {
          val cov = acc(crossIndex(c, i, k)) - acc(i) * acc(k) / n
          val vi = acc(c + i) - acc(i) * acc(i) / n
          val vk = acc(c + k) - acc(k) * acc(k) / n
          out(i)(k) = if (vi <= 1e-12 || vk <= 1e-12) 0.0 else cov / math.sqrt(vi * vk)
        }
        k += 1
      }
      i += 1
    }
    out
  }

  /** Algorithm 4 (intent): greedy keep in descending IV order; drop any
    * feature whose |ρ| with an already-kept feature exceeds θ.
    */
  def removeRedundant(names: Seq[String], ivs: Map[String, Double],
                      corr: Array[Array[Double]],
                      theta: Double = DefaultTheta): Seq[String] = {
    require(corr.length == names.length, "corr matrix must match names")
    val order = names.indices.sortBy(i => -ivs.getOrElse(names(i), 0.0))
    val kept = scala.collection.mutable.ArrayBuffer.empty[Int]
    order.foreach { i =>
      if (kept.forall(j => math.abs(corr(i)(j)) <= theta)) kept += i
    }
    kept.sorted.map(names(_)).toSeq
  }
}
