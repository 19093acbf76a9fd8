package repro.ml

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.DoubleType

/** How the program reads Spark rows: the one cell decode, shared by
  * `LocalMatrix.fromDF`, by the sample rows of `rowsAt` and by the row
  * blocks every distributed statistic (GBDT histograms, IV, Pearson) runs
  * the local kernels on, and the one distributed sum of their partials
  * (`sumPartitions`).
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

  /** `df` as column-major blocks: each partition's internal rows are decoded
    * in row order into blocks of at most `BlockRows` rows (`decode`), with no
    * `Row` in between. A block is built and consumed inside one task;
    * `LocalMatrix` is not serializable, so blocks are never shipped.
    */
  def blocks(df: DataFrame, labelCol: String = "label"): RDD[LocalMatrix] = {
    val names = featureNames(df, labelCol)
    doubles(df, labelCol).queryExecution.toRdd.mapPartitions { rows =>
      decode(names.length, rows).map { case (columns, y) => new LocalMatrix(names, columns, y) }
    }
  }

  /** Every row of `df` in one driver matrix, in partition-then-row order,
    * decoded as `blocks` decodes them: `LocalMatrix.fromDF`.
    */
  private[ml] def collect(df: DataFrame, labelCol: String): LocalMatrix = {
    val names = featureNames(df, labelCol)
    gather(names, doubles(df, labelCol).queryExecution.toRdd.mapPartitions(decode(names.length, _)))
  }

  /** The rows of `df` at ascending `positions`, counting rows in
    * partition-then-row order (the order `blocks` and `fromDF` read), decoded
    * as they decode them, in that order. Two jobs over the frame's internal
    * rows, the same RDD both times: one counts each partition's rows, which
    * numbers them, and one keeps the rows at `positions`. Each task decodes
    * its kept rows into primitive columns, which is all that travels to the
    * driver.
    */
  def rowsAt(df: DataFrame, labelCol: String, positions: Array[Int]): LocalMatrix = {
    val names = featureNames(df, labelCol)
    val internal = doubles(df, labelCol).queryExecution.toRdd
    val counts = df.sparkSession.sparkContext.runJob(internal, (it: Iterator[InternalRow]) => it.size)
    val starts = counts.scanLeft(0L)(_ + _)
    gather(names, internal.mapPartitionsWithIndex { (p, it) =>
      val found = java.util.Arrays.binarySearch(positions, math.min(starts(p), Int.MaxValue).toInt)
      var next = if (found >= 0) found else -found - 1 // first position at or after the partition's start
      var at = starts(p)
      val kept = it.filter { _ =>
        val hit = next < positions.length && positions(next) == at
        if (hit) next += 1
        at += 1
        hit
      }
      decode(names.length, kept)
    })
  }

  /** Decoded chunks, collected in order, as one matrix with columns `names`.
    * The matrix is built on the driver, so a bad label fails there.
    */
  private def gather(names: Array[String], chunks: RDD[(Array[Array[Double]], Array[Double])]): LocalMatrix = {
    val parts = chunks.collect()
    new LocalMatrix(names, Array.tabulate(names.length)(j => Array.concat(parts.map(_._1(j)).toSeq: _*)),
      Array.concat(parts.map(_._2).toSeq: _*))
  }

  /** The one cell decode: internal rows of `doubles` (`m` features, then the
    * label) into chunks of at most `BlockRows` rows, each as `m` feature
    * columns and the labels. Each row is read by ordinal as it arrives and
    * never kept: `toRdd` may hand out one row object again and again.
    * Feature cells that are null or non-finite read as 0; a null label reads
    * as 0, and any other label must be 0 or 1 (`LocalMatrix` checks it).
    */
  private def decode(m: Int, rows: Iterator[InternalRow]): Iterator[(Array[Array[Double]], Array[Double])] =
    new Iterator[(Array[Array[Double]], Array[Double])] {
      def hasNext: Boolean = rows.hasNext
      def next(): (Array[Array[Double]], Array[Double]) = {
        var columns = Array.fill(m)(Array.emptyDoubleArray)
        var y = Array.emptyDoubleArray
        var n = 0
        while (n < BlockRows && rows.hasNext) {
          if (n == y.length) { // grow by doubling, so a small partition allocates no full block
            val size = math.min(BlockRows, math.max(16, 2 * n))
            columns = columns.map(java.util.Arrays.copyOf(_, size))
            y = java.util.Arrays.copyOf(y, size)
          }
          val r = rows.next()
          var j = 0
          while (j < m) { columns(j)(n) = feature(r, j); j += 1 }
          y(n) = label(r, m)
          n += 1
        }
        if (n == y.length) (columns, y)
        else (columns.map(java.util.Arrays.copyOf(_, n)), java.util.Arrays.copyOf(y, n))
      }
    }

  private def label(r: InternalRow, j: Int): Double = if (r.isNullAt(j)) 0.0 else r.getDouble(j)

  private def feature(r: InternalRow, j: Int): Double = {
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
  private[ml] def sumInto(a: Array[Double], b: Array[Double]): Array[Double] = {
    var i = 0
    while (i < a.length) { a(i) += b(i); i += 1 }
    a
  }
}
