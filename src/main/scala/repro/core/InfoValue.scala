package repro.core

import repro.ml.{Binning, Rows}

/** Information Value filter — Algorithm 3 and Table I of the paper.
  *
  * IV = Σ_i (pos_i/P − neg_i/N) · ln((pos_i/P)/(neg_i/N)) over β
  * equal-frequency bins (the paper's Eq. 6 omits the logarithm — a typo;
  * see DESIGN.md). Additive smoothing (+0.5 per bin/class) keeps empty
  * bins finite, the standard practice with WOE/IV.
  */
object InfoValue {

  /** Table I thresholds (rule of thumb). α = 0.1 = "medium predictor". */
  val DefaultAlpha = 0.1
  val DefaultBins = 10

  /** IV of one feature column against binary labels. */
  def iv(values: Array[Double], labels: Array[Double], beta: Int = DefaultBins): Double = {
    val (pos, neg) = Binning.classCounts(values, labels, Binning.quantileEdges(values, beta))
    fromCounts(pos, neg)
  }

  /** IV from per-bin (pos, neg) counts, with smoothing. */
  def fromCounts(pos: Array[Double], neg: Array[Double]): Double = {
    require(pos.length == neg.length)
    val bins = pos.length
    val nP = pos.sum + 0.5 * bins
    val nN = neg.sum + 0.5 * bins
    var ivSum = 0.0
    var b = 0
    while (b < bins) {
      val p = (pos(b) + 0.5) / nP
      val n = (neg(b) + 0.5) / nN
      ivSum += (p - n) * math.log(p / n)
      b += 1
    }
    ivSum
  }

  /** IV of each of `names` over `rows` under per-name `edges`
    * (`Binning.fitLocal` at β bins; with each column's own edges the values
    * are `iv`'s): one pass adding each matrix's per-column
    * `Binning.classCounts`, one part per column.
    */
  def ivAll(rows: Rows, names: Seq[String], edges: Array[Array[Double]]): Map[String, Double] = {
    val cols = names.toArray
    val offsets = Binning.binCounts(edges).scanLeft(0)(_ + _)
    val total = offsets.last
    // layout: [0, total) positives, [total, 2*total) negatives
    val flat = rows.sum(2 * total, cols.length) { (acc, b, j) =>
      val (pos, neg) = Binning.classCounts(b.column(cols(j)), b.y, edges(j))
      var k = 0
      while (k < pos.length) {
        acc(offsets(j) + k) += pos(k)
        acc(total + offsets(j) + k) += neg(k)
        k += 1
      }
    }
    names.indices.map { j =>
      val pos = java.util.Arrays.copyOfRange(flat, offsets(j), offsets(j + 1))
      val neg = java.util.Arrays.copyOfRange(flat, total + offsets(j), total + offsets(j + 1))
      names(j) -> fromCounts(pos, neg)
    }.toMap
  }

  /** Algorithm 3: names with IV > α. If the threshold would empty the set,
    * fall back to the `fallbackTop` highest-IV features so the pipeline can
    * proceed (the paper assumes at least some medium predictors exist).
    */
  def filter(ivs: Map[String, Double], alpha: Double = DefaultAlpha,
             fallbackTop: Int = 1): Seq[String] = {
    val passing = ivs.toSeq.filter(_._2 > alpha).sortBy(-_._2).map(_._1)
    if (passing.nonEmpty) passing
    else ivs.toSeq.sortBy(-_._2).take(math.max(1, fallbackTop)).map(_._1)
  }
}
