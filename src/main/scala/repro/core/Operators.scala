package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Operator registry (§III of the paper).
  *
  * Every operator carries three synchronized faces:
  *   - `column`: a Catalyst expression — generation is a DataFrame
  *     transformation, so Ψ works for real-time inference on a 1-row frame;
  *   - `local`: the same computation on driver arrays (fast path for the
  *     paper's single-machine benchmark grid);
  *   - `sql`: equivalent standard SQL, used by the DuckDB oracle tests to
  *     prove the Catalyst and local faces compute the same thing.
  *
  * All operators force finite outputs: `÷` maps |denominator| < 1e-12 to 0,
  * and non-finite results are zeroed (same guard in all three faces).
  * Non-commutative operators are modelled as distinct operators per the
  * paper (`÷` appears as `div` and `vid` = reversed division).
  */
object Operators {

  val DivEps = 1e-12

  sealed trait Op { def name: String; def arity: Int }

  trait UnaryOp extends Op {
    final val arity = 1
    def column(a: Column): Column
    def local(a: Array[Double]): Array[Double]
    def sql(a: String): String
  }

  trait BinaryOp extends Op {
    final val arity = 2
    def commutative: Boolean
    def column(a: Column, b: Column): Column
    def local(a: Array[Double], b: Array[Double]): Array[Double]
    def sql(a: String, b: String): String
  }

  private def finite(v: Double): Double = if (java.lang.Double.isFinite(v)) v else 0.0

  private def guardCol(c: Column): Column =
    when(isnan(c) || c === Double.PositiveInfinity || c === Double.NegativeInfinity, lit(0.0))
      .otherwise(c)

  // ---- the four basic arithmetic operators used in the paper's experiments

  case object Add extends BinaryOp {
    val name = "add"; val commutative = true
    def column(a: Column, b: Column): Column = guardCol(a + b)
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      Array.tabulate(a.length)(i => finite(a(i) + b(i)))
    def sql(a: String, b: String): String = s"($a + $b)"
  }

  case object Sub extends BinaryOp {
    val name = "sub"; val commutative = false
    def column(a: Column, b: Column): Column = guardCol(a - b)
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      Array.tabulate(a.length)(i => finite(a(i) - b(i)))
    def sql(a: String, b: String): String = s"($a - $b)"
  }

  case object Mul extends BinaryOp {
    val name = "mul"; val commutative = true
    def column(a: Column, b: Column): Column = guardCol(a * b)
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      Array.tabulate(a.length)(i => finite(a(i) * b(i)))
    def sql(a: String, b: String): String = s"($a * $b)"
  }

  case object Div extends BinaryOp {
    val name = "div"; val commutative = false
    def column(a: Column, b: Column): Column =
      guardCol(when(abs(b) < DivEps, lit(0.0)).otherwise(a / b))
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      Array.tabulate(a.length)(i => if (math.abs(b(i)) < DivEps) 0.0 else finite(a(i) / b(i)))
    def sql(a: String, b: String): String =
      s"(CASE WHEN abs($b) < $DivEps THEN 0.0 ELSE $a / $b END)"
  }

  /** ÷ with swapped operands — the paper counts non-commutative operators
    * once per argument order.
    */
  case object Vid extends BinaryOp {
    val name = "vid"; val commutative = false
    def column(a: Column, b: Column): Column = Div.column(b, a)
    def local(a: Array[Double], b: Array[Double]): Array[Double] = Div.local(b, a)
    def sql(a: String, b: String): String = Div.sql(b, a)
  }

  // ---- unary operators (framework support; not in the paper's experiments)

  case object Square extends UnaryOp {
    val name = "square"
    def column(a: Column): Column = guardCol(a * a)
    def local(a: Array[Double]): Array[Double] = a.map(v => finite(v * v))
    def sql(a: String): String = s"($a * $a)"
  }

  case object SqrtAbs extends UnaryOp {
    val name = "sqrtabs"
    def column(a: Column): Column = sqrt(abs(a))
    def local(a: Array[Double]): Array[Double] = a.map(v => math.sqrt(math.abs(v)))
    def sql(a: String): String = s"sqrt(abs($a))"
  }

  case object Log1pAbs extends UnaryOp {
    val name = "log1pabs"
    def column(a: Column): Column = log(abs(a) + 1.0)
    def local(a: Array[Double]): Array[Double] = a.map(v => math.log1p(math.abs(v)))
    def sql(a: String): String = s"ln(abs($a) + 1.0)"
  }

  case object Tanh extends UnaryOp {
    val name = "tanh"
    def column(a: Column): Column = tanh(a)
    def local(a: Array[Double]): Array[Double] = a.map(math.tanh)
    // DuckDB 1.0 has no tanh() — use the exp identity (exp overflows to +inf
    // for large inputs, which still evaluates to the correct limit 1.0).
    def sql(a: String): String = s"(1.0 - 2.0 / (exp(2.0 * ($a)) + 1.0))"
  }

  /** The operator set used in all of the paper's experiments: + − × ÷, with
    * ÷ expanded to both argument orders (non-commutative rule).
    */
  val basicArithmetic: Seq[BinaryOp] = Seq(Add, Sub, Mul, Div, Vid)

  val allUnary: Seq[UnaryOp] = Seq(Square, SqrtAbs, Log1pAbs, Tanh)
}
