package repro.ml

/** Quantile feature binning — the discretization substrate shared by the
  * GBDT (histogram splits), the IV filter (equal-frequency bins, Alg. 3) and
  * the comparators' information-gain scoring.
  *
  * Bin semantics: `edges` are strictly increasing interior cut points;
  * value v lands in bin #{e : !(v <= e)}, the number of edges below it, so
  * v ≤ edges(0) → 0, v > edges(last) → edges.length and NaN → edges.length.
  * A feature with e edges has e+1 bins.
  */
object Binning {

  private val NegZeroBits = java.lang.Double.doubleToRawLongBits(-0.0)

  /** Exact equal-frequency interior edges for one column (≤ maxBins bins).
    *
    * The candidate for cut q (1 ≤ q < maxBins) is the order statistic of
    * rank min(n − 1, ⌊q·n / maxBins⌋) in `java.util.Arrays.sort`'s total
    * order (−0.0 before 0.0, NaN last). Duplicate candidates are collapsed and
    * the column max is dropped, so constant columns yield 0 edges and a column
    * holding NaN yields none (nothing is below a NaN max).
    *
    * The ranks are found by multi-rank selection on a copy of the column:
    * O(n) expected and O(n log n) at worst, against a full sort, and equal bit
    * for bit to the sorted copy at every returned rank. Selection compares
    * with `<`, which cannot tell −0.0 from 0.0 nor order a NaN, so a column
    * holding either is sorted instead.
    */
  def quantileEdges(values: Array[Double], maxBins: Int): Array[Double] = {
    require(maxBins >= 2, "need at least 2 bins")
    val n = values.length
    if (n == 0) return Array.empty
    val a = values.clone()
    var mx = Double.NegativeInfinity
    var selectable = true // no NaN and no −0.0
    var i = 0
    while (i < n) {
      val v = a(i)
      if (v > mx) mx = v
      if (java.lang.Double.isNaN(v) || java.lang.Double.doubleToRawLongBits(v) == NegZeroBits) selectable = false
      i += 1
    }
    val ranks = (1 until maxBins).map(q => math.min(n - 1, (q.toLong * n / maxBins).toInt)).distinct.toArray
    if (selectable) selectRanks(a, ranks)
    else {
      java.util.Arrays.sort(a)
      mx = a(n - 1)
    }
    val edges = ranks.map(a(_)).distinct
    // Drop the global max as an edge: everything would land left of it anyway,
    // and keeping it can create an empty top bin.
    edges.filter(_ < mx)
  }

  /** Permutes `a` (no NaN, no −0.0) so that `a(r)` holds its sorted value for
    * every rank r of the ascending `ranks`: quickselect that recurses only
    * into the sides holding a wanted rank. Each step splits its range around
    * a median-of-three pivot p into `< p` and `>= p` with a branch-free
    * Lomuto pass. When nothing is below p, a second pass splits `== p` from
    * `> p`, so ties still make progress. A range that partitions more than
    * 2·log2(n) + 8 times is sorted instead.
    */
  private def selectRanks(a: Array[Double], ranks: Array[Int]): Unit = {
    val budget = 2 * (32 - Integer.numberOfLeadingZeros(a.length)) + 8
    def go(lo0: Int, hi0: Int, rlo0: Int, rhi0: Int, depth0: Int): Unit = {
      // a(lo until hi) holds the values of ranks(rlo until rhi).
      var lo = lo0; var hi = hi0; var rlo = rlo0; var rhi = rhi0; var depth = depth0
      while (rlo < rhi && hi - lo > 1) {
        if (depth >= budget) { java.util.Arrays.sort(a, lo, hi); return }
        depth += 1
        val p = medianOf3(a(lo), a((lo + hi) >>> 1), a(hi - 1))
        // [lo, l) < p and [m, hi) > p or >= p are left to select; [l, m)
        // holds p (empty unless nothing was below p).
        val l = partition(a, lo, hi, p, orEqual = false)
        val m = if (l > lo) l else partition(a, lo, hi, p, orEqual = true)
        var left = rlo
        while (left < rhi && ranks(left) < l) left += 1
        var right = left
        while (right < rhi && ranks(right) < m) right += 1
        // Recurse into the side with fewer ranks; loop on the other.
        if (left - rlo <= rhi - right) {
          go(lo, l, rlo, left, depth)
          lo = m; rlo = right
        } else {
          go(m, hi, right, rhi, depth)
          hi = l; rhi = left
        }
      }
    }
    go(0, a.length, 0, ranks.length, 0)
  }

  /** Moves the values of a(lo until hi) that are `< p` (`<= p` if `orEqual`)
    * to the front and returns how far they reach. Branch-free: every value is
    * swapped into the boundary slot, and the boundary advances by the
    * comparison's outcome.
    */
  private def partition(a: Array[Double], lo: Int, hi: Int, p: Double, orEqual: Boolean): Int = {
    var b = lo
    var k = lo
    if (orEqual) while (k < hi) {
      val v = a(k); a(k) = a(b); a(b) = v
      if (v <= p) b += 1
      k += 1
    } else while (k < hi) {
      val v = a(k); a(k) = a(b); a(b) = v
      if (v < p) b += 1
      k += 1
    }
    b
  }

  private def medianOf3(x: Double, y: Double, z: Double): Double =
    if (x < y) { if (y < z) y else if (x < z) z else x }
    else { if (x < z) x else if (y < z) z else y }

  /** Bin index of `v` given strictly increasing interior `edges` (see class
    * doc). A fixed-step binary search whose only data-dependent choice is a
    * conditional add, so it takes no unpredictable branch; at 9 edges it is
    * as fast as a linear count, at 126 several times faster.
    */
  def binOf(v: Double, edges: Array[Double]): Int = {
    var len = edges.length
    if (len == 0) return 0
    var base = 0
    while (len > 1) {
      val half = len >>> 1
      if (!(v <= edges(base + half - 1))) base += half
      len -= half
    }
    if (!(v <= edges(base))) base + 1 else base
  }

  /** Per-bin (pos, neg) label counts of `values` under `edges`. */
  def classCounts(values: Array[Double], labels: Array[Double],
                  edges: Array[Double]): (Array[Double], Array[Double]) =
    classCounts(labels, edges.length + 1)(i => binOf(values(i), edges))

  /** Per-bin (pos, neg) label counts: row i falls in bin `binOfRow(i)` and
    * is positive iff `labels(i) > 0.5`. The one counting loop behind IV,
    * information gain and gain ratio.
    */
  def classCounts(labels: Array[Double], bins: Int)(binOfRow: Int => Int): (Array[Double], Array[Double]) = {
    val pos = new Array[Double](bins)
    val neg = new Array[Double](bins)
    var i = 0
    while (i < labels.length) {
      val b = binOfRow(i)
      if (labels(i) > 0.5) pos(b) += 1 else neg(b) += 1
      i += 1
    }
    (pos, neg)
  }

  /** Per-column interior edges for a whole matrix: the one edge definition
    * of both engines (the Spark engine fits them on its driver-side sample).
    * Each column's edges are computed on their own, on `Pool`, so they are
    * `quantileEdges`' doubles; call it on the driver only.
    */
  def fitLocal(m: LocalMatrix, maxBins: Int): Array[Array[Double]] =
    Pool.tabulate(m.cols)(j => quantileEdges(m.column(j), maxBins))

  /** Apply per-column edges to a matrix, producing row-major bin codes.
    * Bin counts must fit a byte (maxBins ≤ 127 enforced upstream).
    */
  def applyLocal(m: LocalMatrix, edges: Array[Array[Double]]): Array[Array[Byte]] = {
    require(edges.length == m.cols, "edges width mismatch")
    val out = Array.fill(m.rows)(new Array[Byte](m.cols))
    var j = 0
    while (j < m.cols) {
      val c = m.column(j)
      val e = edges(j)
      var i = 0
      while (i < m.rows) { out(i)(j) = binOf(c(i), e).toByte; i += 1 }
      j += 1
    }
    out
  }

  /** Number of bins per column implied by `edges`. */
  def binCounts(edges: Array[Array[Double]]): Array[Int] = edges.map(_.length + 1)
}
