package repro.core

import repro.ml.Rows

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

  /** Pearson matrix (Eq. 7) of the named columns of `rows`: one pass adding
    * each matrix's sums with `addSums`, one part per column i.
    */
  def matrix(rows: Rows, names: Seq[String]): Array[Array[Double]] = {
    val cols = names.toArray
    val c = cols.length
    val sums = rows.sum(sumsLength(c), c) { (acc, b, i) =>
      addSums(acc, c, i, Array.tabulate(c - i)(k => b.column(cols(i + k))), b.rows)
    }
    fromSums(sums, cols.length)
  }

  // Sums layout for c columns: [0,c) sums | [c,2c) squares |
  // [2c, 2c + c(c+1)/2) upper-triangle cross products, row-major | [last] n.
  private def sumsLength(c: Int): Int = 2 * c + c * (c + 1) / 2 + 1

  private def crossIndex(c: Int, i: Int, k: Int): Int = {
    val a = math.min(i, k)
    2 * c + a * c - a * (a - 1) / 2 + (math.max(i, k) - a)
  }

  /** Adds row i of the sums of `n` rows of c columns into `acc` (layout
    * above): column i's sum and square, the cross products (i, k) for k ≥ i,
    * and the row count when i = 0. Those cells are part i's alone. `from`
    * holds columns i, …, c − 1. Every cell continues from its current value
    * row by row, so a partition's blocks sum exactly as one pass over its
    * rows would. One sweep over the rows of column i feeds four
    * cross-product cells (i, k) … (i, k + 3) from four independent
    * accumulators; each cell's sum is still the row-order chain of its own
    * products.
    */
  private def addSums(acc: Array[Double], c: Int, i: Int, from: Array[Array[Double]], n: Int): Unit = {
    var t = crossIndex(c, i, i)
    val ci = from(0)
    var s = acc(i)
    var sq = acc(c + i)
    var r = 0
    while (r < n) { s += ci(r); sq += ci(r) * ci(r); r += 1 }
    acc(i) = s
    acc(c + i) = sq
    var k = 0
    while (k + 4 <= from.length) {
      val c0 = from(k); val c1 = from(k + 1); val c2 = from(k + 2); val c3 = from(k + 3)
      var x0 = acc(t); var x1 = acc(t + 1); var x2 = acc(t + 2); var x3 = acc(t + 3)
      r = 0
      while (r < n) {
        val v = ci(r)
        x0 += v * c0(r); x1 += v * c1(r); x2 += v * c2(r); x3 += v * c3(r)
        r += 1
      }
      acc(t) = x0; acc(t + 1) = x1; acc(t + 2) = x2; acc(t + 3) = x3
      t += 4
      k += 4
    }
    while (k < from.length) {
      val ck = from(k)
      var cross = acc(t)
      r = 0
      while (r < n) { cross += ci(r) * ck(r); r += 1 }
      acc(t) = cross
      t += 1
      k += 1
    }
    if (i == 0) acc(acc.length - 1) += n
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
