package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import repro.ml.LocalMatrix
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

  /** Catalyst expression; `input` resolves an input name to its column. */
  def column(input: String => Column): Column = op match {
    case u: UnaryOp  => u.column(input(inputs.head))
    case b: BinaryOp => b.column(input(inputs.head), input(inputs(1)))
  }

  /** Evaluation on driver arrays; `input` resolves an input name to its column. */
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

  /** Apply Ψ to a DataFrame of original feature columns (a label column, if
    * named and present, is passed through). Pure Catalyst — works on a 1-row
    * frame for real-time inference: one `select` reads each input column the
    * plan uses as the fit reads it (`Operators.input`; its own projection, as
    * the operators read an input up to four times), then one `select` in
    * which chained features nest. It gives `applyLocal(LocalMatrix.fromDF(df))`.
    */
  def transform(df: DataFrame, labelCol: Option[String] = Some("label")): DataFrame = {
    val present = df.columns.toSet
    val label = labelCol.filter(present)
    val read = (keep ++ neededGenerated.flatMap(_.inputs)).distinct.filter(present)
    val in = df.select(read.map(n => Operators.input(df(n)).as(n)) ++ label.map(df(_)): _*)
    val cols = evaluate(in.columns.toSeq.map(n => n -> in(n)))(_.column(_))
    in.select(keep.map(n => cols(n).as(n)) ++ label.map(in(_)): _*)
  }

  /** Apply Ψ to a local matrix of original features. Kept original columns
    * are shared with `m`, not copied.
    */
  def applyLocal(m: LocalMatrix): LocalMatrix = {
    val cols = evaluate(m.names.indices.map(j => m.names(j) -> m.column(j)))(_.local(_))
    new LocalMatrix(keep.toArray, keep.map(cols).toArray, m.y)
  }

  /** One pass over `neededGenerated` in dependency order into a name →
    * column map that starts from `inputs`; a generated name must not repeat
    * or collide with an input.
    */
  private def evaluate[A](inputs: Seq[(String, A)])
                         (eval: (GenFeature, String => A) => A): scala.collection.Map[String, A] = {
    val cols = scala.collection.mutable.HashMap.from(inputs)
    neededGenerated.foreach { g =>
      require(!cols.contains(g.name), s"duplicate columns: ${g.name}")
      cols(g.name) = eval(g, cols)
    }
    cols
  }

  /** Human-readable description of the output feature set. */
  def describe: Seq[String] = {
    val defs = neededGenerated.map(_.describe)
    defs ++ Seq(s"output = [${keep.mkString(", ")}]")
  }
}
