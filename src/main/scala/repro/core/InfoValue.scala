package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.DoubleType
import repro.ml.{Binning, LocalMatrix}

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
    val edges = Binning.quantileEdges(values, beta)
    val bins = edges.length + 1
    val pos = new Array[Double](bins)
    val neg = new Array[Double](bins)
    var i = 0
    while (i < values.length) {
      val b = Binning.binOf(values(i), edges)
      if (labels(i) > 0.5) pos(b) += 1 else neg(b) += 1
      i += 1
    }
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

  /** Distributed IV: equal-frequency edges from approxQuantile, then one
    * `treeAggregate` pass accumulating per-(feature, bin, class) counts.
    */
  def ivAllSpark(df: DataFrame, names: Seq[String], labelCol: String = "label",
                 beta: Int = DefaultBins): Map[String, Double] = {
    if (names.isEmpty) return Map.empty
    val featNames = names.toArray
    val casted = df.select((featNames :+ labelCol).map(c => col(c).cast(DoubleType)): _*)
    val edges = Binning.fitSpark(casted, featNames, beta)
    val binCounts = Binning.binCounts(edges)
    val offsets = binCounts.scanLeft(0)(_ + _)
    val total = offsets.last
    val m = featNames.length
    val sc = df.sparkSession.sparkContext
    val bcEdges = sc.broadcast(edges)
    // layout: [0, total) positives, [total, 2*total) negatives
    val flat = casted.rdd.treeAggregate(new Array[Double](2 * total))(
      seqOp = { (acc, r) =>
        val e = bcEdges.value
        val label = if (r.isNullAt(m)) 0.0 else r.getDouble(m)
        val off = if (label > 0.5) 0 else total
        var j = 0
        while (j < m) {
          val v0 = if (r.isNullAt(j)) 0.0 else r.getDouble(j)
          val v = if (java.lang.Double.isFinite(v0)) v0 else 0.0
          acc(off + offsets(j) + Binning.binOf(v, e(j))) += 1.0
          j += 1
        }
        acc
      },
      combOp = { (a, b) => var i = 0; while (i < a.length) { a(i) += b(i); i += 1 }; a })
    bcEdges.destroy()
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
