package repro.ml

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.DoubleType

/** How the program reads Spark rows: the one cell decode, shared by
  * `LocalMatrix.fromDF` and by the row blocks every distributed statistic
  * (GBDT histograms, IV, Pearson) runs the local kernels on, and the one
  * distributed sum of their partials (`sumPartitions`).
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

  /** The one distributed sum: one Spark job, with no merge stage, whose
    * tasks each fold their partition into an array of `length` zeros with
    * `add`; the driver adds these partials in partition order, starting from
    * zeros (so an RDD with no partitions gives zeros). The job runs our own
    * task function: `treeAggregate` and `fold` have Spark clean their
    * internal closures on every call, and `treeAggregate` adds a merge stage
    * from 8 partitions. Partials are at most a few hundred KB, so each is
    * collected; for thousands of partitions a fixed-shape tree folded in
    * index order would be the choice.
    */
  def sumPartitions[T](rdd: RDD[T], length: Int)(add: (Array[Double], T) => Unit): Array[Double] = {
    val partials = rdd.sparkContext.runJob(rdd, (_: TaskContext, it: Iterator[T]) => {
      val acc = new Array[Double](length)
      it.foreach(add(acc, _))
      acc
    }, 0 until rdd.getNumPartitions)
    partials.foldLeft(new Array[Double](length))(sumInto)
  }

  /** Adds `b` into `a` elementwise and returns `a`. */
  private def sumInto(a: Array[Double], b: Array[Double]): Array[Double] = {
    var i = 0
    while (i < a.length) { a(i) += b(i); i += 1 }
    a
  }
}
