package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.DoubleType
import repro.ml.LocalMatrix

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
    val cols = names.map(m.column).toArray
    fromSums(sums(cols, m.rows), names.length, m.rows)
  }

  /** Distributed Pearson matrix: one `treeAggregate` pass over the rows
    * accumulating sums, squares and upper-triangle cross products.
    */
  def matrixSpark(df: DataFrame, names: Seq[String]): Array[Array[Double]] = {
    val featNames = names.toArray
    val c = featNames.length
    if (c == 0) return Array.empty
    val casted = df.select(featNames.map(n => col(n).cast(DoubleType)): _*)
    // layout: [0,c) sums | [c,2c) sumsq | [2c, 2c + c(c+1)/2) upper-tri cross | [last] n
    val triLen = c * (c + 1) / 2
    val flat = casted.rdd.treeAggregate(new Array[Double](2 * c + triLen + 1))(
      seqOp = { (acc, r) =>
        val v = new Array[Double](c)
        var j = 0
        while (j < c) {
          val x = if (r.isNullAt(j)) 0.0 else r.getDouble(j)
          v(j) = if (java.lang.Double.isFinite(x)) x else 0.0
          acc(j) += v(j)
          acc(c + j) += v(j) * v(j)
          j += 1
        }
        var t = 2 * c
        var i = 0
        while (i < c) {
          var k = i
          while (k < c) { acc(t) += v(i) * v(k); t += 1; k += 1 }
          i += 1
        }
        acc(acc.length - 1) += 1.0
        acc
      },
      combOp = { (a, b) => var i = 0; while (i < a.length) { a(i) += b(i); i += 1 }; a })
    val n = flat.last.toLong
    val colSums = java.util.Arrays.copyOfRange(flat, 0, c)
    val colSq = java.util.Arrays.copyOfRange(flat, c, 2 * c)
    val cross = Array.ofDim[Double](c, c)
    var t = 2 * c
    var i = 0
    while (i < c) {
      var k = i
      while (k < c) { cross(i)(k) = flat(t); cross(k)(i) = flat(t); t += 1; k += 1 }
      i += 1
    }
    fromSums((colSums, colSq, cross), c, n)
  }

  private def sums(cols: Array[Array[Double]], n: Long)
      : (Array[Double], Array[Double], Array[Array[Double]]) = {
    val c = cols.length
    val s = new Array[Double](c)
    val sq = new Array[Double](c)
    val cross = Array.ofDim[Double](c, c)
    var i = 0
    while (i < c) {
      val ci = cols(i)
      var r = 0
      while (r < ci.length) { s(i) += ci(r); sq(i) += ci(r) * ci(r); r += 1 }
      var k = i
      while (k < c) {
        val ck = cols(k)
        var rr = 0
        var acc = 0.0
        while (rr < ci.length) { acc += ci(rr) * ck(rr); rr += 1 }
        cross(i)(k) = acc; cross(k)(i) = acc
        k += 1
      }
      i += 1
    }
    (s, sq, cross)
  }

  private def fromSums(sums: (Array[Double], Array[Double], Array[Array[Double]]),
                       c: Int, n: Long): Array[Array[Double]] = {
    val (s, sq, cross) = sums
    val out = Array.ofDim[Double](c, c)
    var i = 0
    while (i < c) {
      var k = 0
      while (k < c) {
        if (i == k) out(i)(k) = 1.0
        else {
          val cov = cross(i)(k) - s(i) * s(k) / n
          val vi = sq(i) - s(i) * s(i) / n
          val vk = sq(k) - s(k) * s(k) / n
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
