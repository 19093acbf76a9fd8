package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit
import repro.ml.{LocalMatrix, SparkRows}
import repro.core.Operators.{BinaryOp, Op, UnaryOp}

/** One generated feature: an operator applied to named input columns.
  * Inputs may be original columns or previously generated features (later
  * iterations build on earlier ones). `name` is a machine-safe column name;
  * `describe` is the human-readable, SQL-valid expression — the paper's
  * interpretability requirement.
  */
final case class GenFeature(op: Op, inputs: Seq[String]) {
  require(inputs.length == op.arity, s"${op.name} needs ${op.arity} inputs, got ${inputs.length}")

  /** Built once: Ψ looks it up for every feature of every record it serves. */
  val name: String = s"${op.name}__${inputs.mkString("__")}"

  /** Evaluation on column arrays; `input` resolves an input name to its column. */
  def local(input: String => Array[Double]): Array[Double] = op match {
    case u: UnaryOp  => u.local(input(inputs.head))
    case b: BinaryOp => b.local(input(inputs.head), input(inputs(1)))
  }

  /** SQL expression over a table already containing `inputs` — consumed by
    * the DuckDB oracle.
    */
  def sql: String = op match {
    case u: UnaryOp  => u.sql(inputs.head)
    case b: BinaryOp => b.sql(inputs.head, inputs(1))
  }

  def describe: String = s"$name = $sql"
}

/** Ψ — the feature generation function produced by SAFE (Eq. 1) and the
  * comparator algorithms.
  *
  * @param generated all derived features in dependency order (an input of
  *                  generated(k) is either an original column or the name of
  *                  some generated(j), j < k)
  * @param keep      the final output columns (original and/or generated
  *                  names), i.e. the selected feature set
  */
final case class FeaturePlan(generated: Seq[GenFeature], keep: Seq[String]) {
  require(keep.distinct.length == keep.length, "duplicate names in keep")

  def width: Int = keep.length

  /** Derived features that are actually needed to produce `keep` — the kept
    * generated features plus their transitive generated inputs, in order.
    */
  lazy val neededGenerated: Seq[GenFeature] = {
    val byName = generated.map(g => g.name -> g).toMap
    val needed = scala.collection.mutable.Set.empty[String]
    def mark(n: String): Unit = byName.get(n).foreach { g =>
      if (needed.add(n)) g.inputs.foreach(mark)
    }
    keep.foreach(mark)
    generated.filter(g => needed(g.name))
  }

  /** Apply Ψ to a DataFrame of original feature columns with the one
    * evaluator: `applyLocal` on the frame's row blocks, decoded as the Spark
    * fit reads them (`SparkRows.blocks`; a label must be 0 or 1). Gives the
    * `keep` columns as non-null doubles, then the decoded label if named and
    * present, in row order: `applyLocal(LocalMatrix.fromDF(df))` bit for
    * bit. Works on a 1-row frame (real-time inference); names are checked on
    * the driver.
    */
  def transform(df: DataFrame, labelCol: Option[String] = Some("label")): DataFrame = {
    val present = df.columns.toSet
    val label = labelCol.filter(present)
    val read = (keep ++ neededGenerated.flatMap(_.inputs)).distinct.filter(present).toArray
    applyLocal(new LocalMatrix(read, read.map(_ => Array.emptyDoubleArray), Array.emptyDoubleArray))
    // blocks need a label column: without one, a 0.0 placeholder under a name the plan does not read
    val y = label.getOrElse(Iterator.iterate("label")("_" + _).find(n => !read.contains(n)).get)
    val in = df.select(read.map(df(_)).toSeq :+ label.fold(lit(0.0))(df(_)).as(y): _*)
    val out = SparkRows.blocks(in, y).mapPartitions(_.flatMap { b =>
      val psi = applyLocal(b)
      val cols = Array.tabulate(psi.cols)(psi.column)
      LocalMatrix.chunkRows(if (label.isDefined) cols :+ psi.y else cols, psi.rows)
    })
    df.sparkSession.createDataFrame(out, LocalMatrix.schema(keep ++ label))
  }

  /** Apply Ψ to a local matrix of original features: one pass over
    * `neededGenerated` in dependency order into a name → column map that
    * starts from `m`'s columns (a generated name must not repeat or collide
    * with an input). Kept original columns are shared with `m`, not copied.
    */
  def applyLocal(m: LocalMatrix): LocalMatrix = {
    val cols = scala.collection.mutable.HashMap.from(m.names.indices.map(j => m.names(j) -> m.column(j)))
    neededGenerated.foreach { g =>
      require(!cols.contains(g.name), s"duplicate columns: ${g.name}")
      cols(g.name) = g.local(cols)
    }
    new LocalMatrix(keep.toArray, keep.map(cols).toArray, m.y)
  }

  /** Human-readable description of the output feature set. */
  def describe: Seq[String] = {
    val defs = neededGenerated.map(_.describe)
    defs ++ Seq(s"output = [${keep.mkString(", ")}]")
  }
}
