package repro.core

import org.apache.spark.sql.DataFrame
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

  /** Distributed IV under per-name `edges` (`Binning.fitLocal` at β bins;
    * with `ivAllLocal`'s edges the values are its values): one
    * `treeAggregate` pass accumulating per-(feature, bin, class) counts.
    */
  def ivAllSpark(df: DataFrame, names: Seq[String], edges: Array[Array[Double]],
                 labelCol: String = "label"): Map[String, Double] = {
    if (names.isEmpty) return Map.empty
    val featNames = names.toArray
    val casted = SparkRows.doubles(df, featNames :+ labelCol)
    val binCounts = Binning.binCounts(edges)
    val offsets = binCounts.scanLeft(0)(_ + _)
    val total = offsets.last
    val m = featNames.length
    val bcEdges = df.sparkSession.sparkContext.broadcast(edges)
    // layout: [0, total) positives, [total, 2*total) negatives
    val flat = try casted.rdd.treeAggregate(new Array[Double](2 * total))(
      seqOp = { (acc, r) =>
        val e = bcEdges.value
        val off = if (SparkRows.label(r, m) > 0.5) 0 else total
        var j = 0
        while (j < m) {
          acc(off + offsets(j) + Binning.binOf(SparkRows.feature(r, j), e(j))) += 1.0
          j += 1
        }
        acc
      },
      combOp = SparkRows.sumInto)
    finally bcEdges.destroy()
    featNames.indices.map { j =>
      val pos = java.util.Arrays.copyOfRange(flat, offsets(j), offsets(j + 1))
      val neg = java.util.Arrays.copyOfRange(flat, total + offsets(j), total + offsets(j + 1))
      featNames(j) -> fromCounts(pos, neg)
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
