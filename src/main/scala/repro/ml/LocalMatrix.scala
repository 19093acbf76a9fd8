package repro.ml

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}

/** A named dense feature matrix with a binary label vector.
  *
  * It is the one data type of every SAFE kernel: the local engine's whole
  * matrix, the Spark engine's row blocks (`SparkRows.blocks`), and the input
  * of the local classifier substrate (which plays the role of scikit-learn
  * in the paper's evaluation).
  *
  * Storage is column-major, the layout binning, IV, Pearson, gain ratio and
  * the operators read: one array per feature. Columns are shared, never
  * copied, by `column` and `selectNames`, so callers must treat them as
  * read-only. `x` is a row-major copy built on first use for the row-reading
  * classifiers.
  *
  * @param names   column name per feature, length M
  * @param columns M feature columns of `rows` values each (finite; generation
  *                guards NaN/Inf)
  * @param y       labels in {0.0, 1.0} (checked), length rows
  */
final class LocalMatrix(val names: Array[String], columns: Array[Array[Double]], val y: Array[Double]) {
  require(columns.length == names.length, s"names=${names.length} columns=${columns.length}")
  require(columns.forall(_.length == y.length), s"every column needs ${y.length} rows (one per label)")
  require(LocalMatrix.binary(y), s"labels must be 0.0 or 1.0, got ${y.find(v => v != 0.0 && v != 1.0).get}")

  def rows: Int = y.length
  def cols: Int = names.length

  private lazy val index: Map[String, Int] = names.zipWithIndex.toMap

  /** Column `j` (the stored array; read-only). */
  def column(j: Int): Array[Double] = columns(j)

  /** The column called `name` (the stored array; read-only). */
  def column(name: String): Array[Double] =
    columns(index.getOrElse(name, throw new NoSuchElementException(s"no column $name")))

  /** Rows × M row-major copy, built once on first use. */
  lazy val x: Array[Array[Double]] = Array.tabulate(rows)(i => Array.tabulate(cols)(j => columns(j)(i)))

  /** Projection onto a subset of columns by name. */
  def selectNames(keep: Seq[String]): LocalMatrix =
    new LocalMatrix(keep.toArray, keep.map(column).toArray, y)

  /** Row subset (e.g. bootstrap sample). */
  def takeRows(idx: Array[Int]): LocalMatrix =
    new LocalMatrix(names, columns.map(c => idx.map(c)), idx.map(y))

  /** To a Spark DataFrame with a `label` column appended.
    *
    * With k = clamp(rows / 1000, 1, 8) partitions, partition p holds rows
    * [p·rows/k, (p+1)·rows/k) in order, as `parallelize` over the rows would
    * place them, built on the executors by `chunkRows`. The columns (the
    * label last) travel in one broadcast and only the partition indices are
    * parallelized, so a task over the frame carries no rows, as with a
    * file-backed frame. Spark's `ContextCleaner` drops the broadcast once
    * the frame is unreachable.
    */
  def toDF(spark: SparkSession): DataFrame = {
    val k = math.max(1, math.min(8, rows / 1000))
    val n = rows // a local, so the task closure does not capture this matrix
    val withLabel = spark.sparkContext.broadcast(columns :+ y)
    val data = spark.sparkContext.parallelize(0 until k, k).flatMap { p =>
      LocalMatrix.chunkRows(withLabel.value, (p.toLong * n / k).toInt, ((p + 1).toLong * n / k).toInt)
    }
    spark.createDataFrame(data, LocalMatrix.schema(names.toSeq :+ "label"))
  }
}

object LocalMatrix {

  /** `names` as non-null doubles: the schema of `toDF` and `FeaturePlan.transform`. */
  private[repro] def schema(names: Seq[String]): StructType =
    StructType(names.map(StructField(_, DoubleType, nullable = false)))

  /** Rows [from, until) of `cols`: row i holds each column's value i. */
  private[repro] def chunkRows(cols: Array[Array[Double]], from: Int, until: Int): Iterator[Row] =
    Iterator.range(from, until).map(i => Row.fromSeq(cols.map(_(i)).toSeq))

  /** Whether every label is 0.0 or 1.0: one pass, no allocation. */
  private def binary(y: Array[Double]): Boolean = {
    var i = 0
    while (i < y.length && (y(i) == 0.0 || y(i) == 1.0)) i += 1
    i == y.length
  }

  /** From row-major values: `x` is rows × M. */
  def apply(names: Array[String], x: Array[Array[Double]], y: Array[Double]): LocalMatrix = {
    require(x.length == y.length, s"rows=${x.length} labels=${y.length}")
    require(x.forall(_.length == names.length), "name/width mismatch")
    new LocalMatrix(names, Array.tabulate(names.length)(j => x.map(_(j))), y)
  }

  /** Collect a DataFrame into a LocalMatrix. `labelCol` must be 0/1-valued;
    * all other columns are cast to double. Decoded as `SparkRows.blocks`
    * decodes: null and non-finite feature values read as 0.
    */
  def fromDF(df: DataFrame, labelCol: String = "label"): LocalMatrix =
    SparkRows.decode(SparkRows.featureNames(df, labelCol), SparkRows.doubles(df, labelCol).collect())
}
