package repro.core

import org.apache.spark.rdd.RDD
import repro.ml.{Binning, LocalMatrix, SparkRows}

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

  /** IV for every listed column of a local matrix. */
  def ivAllLocal(m: LocalMatrix, names: Seq[String], beta: Int = DefaultBins): Map[String, Double] = {
    names.map(n => n -> iv(m.column(n), m.y, beta)).toMap
  }

  /** Distributed IV over row blocks whose columns are `names`, in order,
    * under per-name `edges` (`Binning.fitLocal` at β bins; with
    * `ivAllLocal`'s edges the values are its values): one `treeAggregate`
    * pass adding each block's per-column `Binning.classCounts`.
    */
  def ivAllSpark(blocks: RDD[LocalMatrix], names: Seq[String],
                 edges: Array[Array[Double]]): Map[String, Double] = {
    if (names.isEmpty) return Map.empty
    val offsets = Binning.binCounts(edges).scanLeft(0)(_ + _)
    val total = offsets.last
    val bcEdges = blocks.sparkContext.broadcast(edges)
    // layout: [0, total) positives, [total, 2*total) negatives
    val flat = try blocks.treeAggregate(new Array[Double](2 * total))(
      seqOp = { (acc, b) =>
        val e = bcEdges.value
        var j = 0
        while (j < b.cols) {
          val (pos, neg) = Binning.classCounts(b.column(j), b.y, e(j))
          var k = 0
          while (k < pos.length) {
            acc(offsets(j) + k) += pos(k)
            acc(total + offsets(j) + k) += neg(k)
            k += 1
          }
          j += 1
        }
        acc
      },
      combOp = SparkRows.sumInto)
    finally bcEdges.destroy()
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
