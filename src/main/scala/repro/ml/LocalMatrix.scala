package repro.ml

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}

/** A named dense feature matrix with a binary label vector.
  *
  * This is the bridge between the Spark world (where SAFE's generation runs
  * as Catalyst expressions) and the local classifier substrate (which plays
  * the role of scikit-learn in the paper's evaluation).
  *
  * Storage is column-major, the layout binning, IV, Pearson, gain ratio and
  * the operators read: one array per feature. Columns are shared, never
  * copied, by `column`, `select`, `selectNames` and `withColumns`, so callers
  * must treat them as read-only. `x` is a row-major copy built on first use
  * for the row-reading classifiers.
  *
  * @param names   column name per feature, length M
  * @param columns M feature columns of `rows` values each (finite; generation
  *                guards NaN/Inf)
  * @param y       labels in {0.0, 1.0}, length rows
  */
final class LocalMatrix(val names: Array[String], columns: Array[Array[Double]], val y: Array[Double]) {
  require(columns.length == names.length, s"names=${names.length} columns=${columns.length}")
  require(columns.forall(_.length == y.length), s"every column needs ${y.length} rows (one per label)")

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

  /** Projection onto a subset of columns (by index, order preserved). */
  def select(idx: Seq[Int]): LocalMatrix = {
    val ii = idx.toArray
    new LocalMatrix(ii.map(names), ii.map(columns), y)
  }

  /** Projection onto a subset of columns by name. */
  def selectNames(keep: Seq[String]): LocalMatrix =
    new LocalMatrix(keep.toArray, keep.map(column).toArray, y)

  /** Row subset (e.g. bootstrap sample). */
  def takeRows(idx: Array[Int]): LocalMatrix =
    new LocalMatrix(names, columns.map(c => idx.map(c)), idx.map(y))

  /** Horizontal concatenation of `extra` columns; names must stay unique. */
  def withColumns(extraNames: Array[String], extra: Array[Array[Double]]): LocalMatrix = {
    val dup = (names ++ extraNames).groupBy(identity).collect { case (n, g) if g.length > 1 => n }
    require(dup.isEmpty, s"duplicate columns: ${dup.take(3).mkString(",")}")
    new LocalMatrix(names ++ extraNames, columns ++ extra, y)
  }

  /** To a Spark DataFrame with a `label` column appended. */
  def toDF(spark: SparkSession): DataFrame = {
    val schema = StructType(
      names.map(n => StructField(n, DoubleType, nullable = false)) :+
        StructField("label", DoubleType, nullable = false))
    val rowSeq: Seq[Row] = (0 until rows).map(i => Row.fromSeq(columns.map(_(i)).toIndexedSeq :+ y(i)))
    spark.createDataFrame(spark.sparkContext.parallelize(rowSeq, math.max(1, math.min(8, rows / 1000))), schema)
  }
}

object LocalMatrix {

  /** From row-major values: `x` is rows × M. */
  def apply(names: Array[String], x: Array[Array[Double]], y: Array[Double]): LocalMatrix = {
    require(x.length == y.length, s"rows=${x.length} labels=${y.length}")
    require(x.forall(_.length == names.length), "name/width mismatch")
    new LocalMatrix(names, Array.tabulate(names.length)(j => x.map(_(j))), y)
  }

  /** Collect a DataFrame into a LocalMatrix. `labelCol` must be 0/1-valued;
    * all other columns are cast to double. Non-finite values are zeroed
    * (mirrors the generation-side guard).
    */
  def fromDF(df: DataFrame, labelCol: String = "label"): LocalMatrix = {
    val featNames = df.columns.filter(_ != labelCol)
    require(featNames.length == df.columns.length - 1, s"label column '$labelCol' not found")
    val casted = df.select((featNames :+ labelCol).map(c => col(c).cast(DoubleType)): _*)
    val collected = casted.collect()
    val m = featNames.length
    val columns = Array.fill(m)(new Array[Double](collected.length))
    val y = new Array[Double](collected.length)
    var i = 0
    while (i < collected.length) {
      val r = collected(i)
      var j = 0
      while (j < m) {
        val v = if (r.isNullAt(j)) 0.0 else r.getDouble(j)
        columns(j)(i) = if (java.lang.Double.isFinite(v)) v else 0.0
        j += 1
      }
      y(i) = if (r.isNullAt(m)) 0.0 else r.getDouble(m)
      i += 1
    }
    new LocalMatrix(featNames, columns, y)
  }
}
