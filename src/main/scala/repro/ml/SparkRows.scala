package repro.ml

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.DoubleType

/** How the distributed statistics (GBDT binning, IV, Pearson) and
  * `LocalMatrix.fromDF` read Spark rows: the one cell decode, and the one
  * merge of their `treeAggregate` sums.
  */
object SparkRows {

  /** `df` projected onto `names`, in order, each cast to double. */
  def doubles(df: DataFrame, names: Seq[String]): DataFrame =
    df.select(names.map(c => col(c).cast(DoubleType)): _*)

  /** Label cell `j`: null reads as 0; other values pass through. */
  def label(r: Row, j: Int): Double = if (r.isNullAt(j)) 0.0 else r.getDouble(j)

  /** Feature cell `j`: null and non-finite values read as 0. */
  def feature(r: Row, j: Int): Double = {
    val v = label(r, j)
    if (java.lang.Double.isFinite(v)) v else 0.0
  }

  /** Adds `b` into `a` elementwise and returns `a` (every `combOp`). */
  def sumInto(a: Array[Double], b: Array[Double]): Array[Double] = {
    var i = 0
    while (i < a.length) { a(i) += b(i); i += 1 }
    a
  }
}
