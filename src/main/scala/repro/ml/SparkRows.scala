package repro.ml

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.DoubleType

/** How the program reads Spark rows: the one cell decode, shared by
  * `LocalMatrix.fromDF` and by the row blocks every distributed statistic
  * (GBDT histograms, IV, Pearson) runs the local kernels on, and the one
  * merge of their `treeAggregate` sums.
  */
object SparkRows {

  /** Rows per block: long enough that the column kernels' inner loops
    * dominate, and a block holds 32 KB per column.
    */
  private val BlockRows = 4096

  /** `df`'s feature columns (every column but `labelCol`), distinct, in frame order. */
  def featureNames(df: DataFrame, labelCol: String): Array[String] = {
    val names = df.columns.filter(_ != labelCol)
    require(names.length == df.columns.length - 1, s"label column '$labelCol' not found")
    require(names.distinct.length == names.length, s"duplicate feature names: ${names.diff(names.distinct).mkString(", ")}")
    names
  }

  /** `df` projected onto its feature columns and then `labelCol`, each cast
    * to double: the rows `decode` reads.
    */
  private[ml] def doubles(df: DataFrame, labelCol: String): DataFrame =
    df.select((featureNames(df, labelCol).toSeq :+ labelCol).map(c => col(c).cast(DoubleType)): _*)

  /** `df` as column-major blocks: each partition is decoded in row order into
    * blocks of at most `BlockRows` rows. A block is built and consumed inside
    * one task; `LocalMatrix` is not serializable, so blocks are never shipped.
    */
  def blocks(df: DataFrame, labelCol: String = "label"): RDD[LocalMatrix] = {
    val names = featureNames(df, labelCol)
    doubles(df, labelCol).rdd.mapPartitions(_.grouped(BlockRows).map(decode(names, _)))
  }

  /** The one cell decode: rows of `doubles` into a column-major matrix.
    * Feature cells that are null or non-finite read as 0; a null label reads
    * as 0, and any other label must be 0 or 1 (`LocalMatrix` checks it).
    */
  private[ml] def decode(names: Array[String], rows: collection.Seq[Row]): LocalMatrix = {
    val m = names.length
    val columns = Array.fill(m)(new Array[Double](rows.length))
    val y = new Array[Double](rows.length)
    var i = 0
    rows.foreach { r =>
      var j = 0
      while (j < m) { columns(j)(i) = feature(r, j); j += 1 }
      y(i) = label(r, m)
      i += 1
    }
    new LocalMatrix(names, columns, y)
  }

  private def label(r: Row, j: Int): Double = if (r.isNullAt(j)) 0.0 else r.getDouble(j)

  private def feature(r: Row, j: Int): Double = {
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
