package repro.core

import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.core.Operators._
import repro.ml.LocalMatrix
import scala.util.Random

class OperatorsSpec extends SparkSpec {

  private lazy val mat: LocalMatrix = {
    val rng = new Random(42)
    LocalMatrix(
      Array("a", "b"),
      Array.fill(200)(Array(rng.nextGaussian() * 3, rng.nextGaussian() * 2)),
      Array.fill(200)(0.0))
  }
  private lazy val df = mat.toDF(spark).drop("label").cache()

  /** Cast-wrapped source for DuckDB (oracle tables are VARCHAR). */
  private val ducked = "(SELECT CAST(a AS DOUBLE) AS a, CAST(b AS DOUBLE) AS b FROM t)"

  private def checkBinaryOracle(op: BinaryOp): Unit = {
    val sparkDf = df.select(op.column(col("a"), col("b")).as("r"))
    Oracle.assertEquivalent(sparkDf, s"SELECT ${op.sql("a", "b")} AS r FROM $ducked", "t" -> df)
  }

  private def checkLocalVsColumn(op: BinaryOp): Unit = {
    val expected = op.local(mat.column(0), mat.column(1)).sorted
    val got = df.select(op.column(col("a"), col("b")).as("r")).collect().map(_.getDouble(0)).sorted
    expected.zip(got).foreach { case (e, g) => assert(math.abs(e - g) < 1e-9, s"${op.name}: $e vs $g") }
  }

  for (op <- Seq(Add, Sub, Mul, Div, Vid)) {
    test(s"${op.name}: Catalyst face matches DuckDB oracle") { checkBinaryOracle(op) }
    test(s"${op.name}: local face matches Catalyst face") { checkLocalVsColumn(op) }
  }

  test("div guards zero denominators to 0 on all three faces") {
    val m = LocalMatrix(Array("a", "b"), Array(Array(5.0, 0.0), Array(6.0, 2.0)), Array(0.0, 0.0))
    val localVals = Div.local(m.column(0), m.column(1))
    assert(localVals(0) == 0.0 && localVals(1) == 3.0)
    val d = m.toDF(spark).drop("label")
    val sparkVals = d.select(Div.column(col("a"), col("b")).as("r")).collect().map(_.getDouble(0)).sorted
    assert(sparkVals.sameElements(Array(0.0, 3.0)))
    Oracle.assertEquivalent(
      d.select(Div.column(col("a"), col("b")).as("r")),
      s"SELECT ${Div.sql("a", "b")} AS r FROM (SELECT CAST(a AS DOUBLE) AS a, CAST(b AS DOUBLE) AS b FROM t)",
      "t" -> d)
  }

  test("vid is div with swapped operands") {
    val a = Array(1.0, 8.0)
    val b = Array(2.0, 4.0)
    assert(Vid.local(a, b).sameElements(Array(2.0, 0.5)))
  }

  for (op <- allUnary) {
    test(s"unary ${op.name}: local face matches Catalyst face") {
      val expected = op.local(mat.column(0)).sorted
      val got = df.select(op.column(col("a")).as("r")).collect().map(_.getDouble(0)).sorted
      expected.zip(got).foreach { case (e, g) => assert(math.abs(e - g) < 1e-9) }
    }
    test(s"unary ${op.name}: Catalyst face matches DuckDB oracle") {
      val sparkDf = df.select(op.column(col("a")).as("r"))
      Oracle.assertEquivalent(sparkDf, s"SELECT ${op.sql("a")} AS r FROM $ducked", "t" -> df)
    }
  }

  test("unary outputs are finite on extreme inputs") {
    val extreme = Array(Double.MaxValue, -Double.MaxValue, 0.0)
    allUnary.foreach { op =>
      op.local(extreme).foreach(v => assert(java.lang.Double.isFinite(v), op.name))
    }
  }

  test("each local face equals its per-element formula on 0, 1 and 1 000 values") {
    def fin(v: Double) = if (java.lang.Double.isFinite(v)) v else 0.0
    def quotient(x: Double, y: Double) = if (math.abs(y) < DivEps) 0.0 else fin(x / y)
    val binary: Seq[(BinaryOp, (Double, Double) => Double)] = Seq(
      (Add, (x, y) => fin(x + y)), (Sub, (x, y) => fin(x - y)), (Mul, (x, y) => fin(x * y)),
      (Div, (x, y) => quotient(x, y)), (Vid, (x, y) => quotient(y, x)))
    val unary: Seq[(UnaryOp, Double => Double)] = Seq(
      (Square, v => fin(v * v)), (SqrtAbs, v => math.sqrt(math.abs(v))),
      (Log1pAbs, v => math.log1p(math.abs(v))), (Tanh, v => math.tanh(v)))
    val rng = new Random(5)
    // Overflow to ±Inf, 0/0, denominators on both sides of the 1e-12 guard.
    val edge = Array(Double.MaxValue, -Double.MaxValue, 0.0, -0.0, 1e-13, -1e-13, 1e-12, 3.0, -2.0, 1e308)
    def draw(n: Int) = Array.tabulate(n)(i => if (i % 7 == 0) edge(rng.nextInt(edge.length)) else rng.nextGaussian() * 10)
    def bits(a: Array[Double]) = a.toSeq.map(java.lang.Double.doubleToRawLongBits)
    for (n <- Seq(0, 1, 1000)) {
      val (a, b) = (draw(n), draw(n))
      binary.foreach { case (op, f) =>
        assert(bits(op.local(a, b)) == bits(Array.tabulate(n)(i => f(a(i), b(i)))), s"${op.name}, n=$n")
      }
      unary.foreach { case (op, f) =>
        assert(bits(op.local(a)) == bits(Array.tabulate(n)(i => f(a(i)))), s"${op.name}, n=$n")
      }
    }
    assert(Mul.local(Array(Double.MaxValue), Array(2.0)).sameElements(Array(0.0)))
    assert(Div.local(Array(1.0, 1.0), Array(1e-13, 0.5)).sameElements(Array(0.0, 2.0)))
  }

  test("operator registry contents match the paper's experiment setup") {
    assert(basicArithmetic.map(_.name) == Seq("add", "sub", "mul", "div", "vid"))
  }
}
