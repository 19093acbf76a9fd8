package repro.ml

/** Quantile feature binning — the discretization substrate shared by the
  * GBDT (histogram splits), the IV filter (equal-frequency bins, Alg. 3) and
  * the comparators' information-gain scoring.
  *
  * Bin semantics: `edges` are strictly increasing interior cut points;
  * value v lands in bin `#edges ≤ v` counted from the left, i.e.
  * `bin(v) = upperBound(edges, v)` with v ≤ edges(0) → 0 and
  * v > edges(last) → edges.length. A feature with e edges has e+1 bins.
  */
object Binning {

  /** Exact equal-frequency interior edges for one column (≤ maxBins bins).
    * Duplicate quantiles are collapsed, so constant columns yield 0 edges.
    */
  def quantileEdges(values: Array[Double], maxBins: Int): Array[Double] = {
    require(maxBins >= 2, "need at least 2 bins")
    if (values.isEmpty) return Array.empty
    val sorted = values.clone()
    java.util.Arrays.sort(sorted)
    val n = sorted.length
    val edges = (1 until maxBins).map { q =>
      sorted(math.min(n - 1, (q.toLong * n / maxBins).toInt))
    }.distinct.toArray
    // Drop the global max as an edge: everything would land left of it anyway,
    // and keeping it can create an empty top bin.
    val mx = sorted(n - 1)
    edges.filter(_ < mx)
  }

  /** Bin index of `v` given interior `edges` (see class doc). */
  def binOf(v: Double, edges: Array[Double]): Int = {
    var lo = 0
    var hi = edges.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (v <= edges(mid)) hi = mid else lo = mid + 1
    }
    lo
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
    */
  def fitLocal(m: LocalMatrix, maxBins: Int): Array[Array[Double]] =
    Array.tabulate(m.cols)(j => quantileEdges(m.column(j), maxBins))

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
