package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

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
    def column(a: Column, b: Column): Column
    def local(a: Array[Double], b: Array[Double]): Array[Double]
    def sql(a: String, b: String): String
  }

  private def finite(v: Double): Double = if (java.lang.Double.isFinite(v)) v else 0.0

  /** A raw input cell as `SparkRows.decode` reads it: a null, NaN (Spark
    * orders it above every number) or ±Inf fails |v| < ∞ and reads as 0. */
  def input(c: Column): Column =
    when(abs(c.cast(DoubleType)) < Double.PositiveInfinity, c.cast(DoubleType)).otherwise(lit(0.0))

  /** Non-finite → 0 on a non-null operand: NaN (ordered above every number)
    * and ±Inf fail |c| < ∞. Names `c` twice, so nesting stays linear. */
  private def guardCol(c: Column): Column =
    when(abs(c) < Double.PositiveInfinity, c).otherwise(lit(0.0))

  /** Element-wise `f` as a primitive loop (`Array.tabulate`/`map` box each
    * `Double`). */
  private def zipLocal(a: Array[Double], b: Array[Double])(f: (Double, Double) => Double): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0
    while (i < out.length) { out(i) = f(a(i), b(i)); i += 1 }
    out
  }

  private def mapLocal(a: Array[Double])(f: Double => Double): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0
    while (i < out.length) { out(i) = f(a(i)); i += 1 }
    out
  }

  // ---- the four basic arithmetic operators used in the paper's experiments

  case object Add extends BinaryOp {
    val name = "add"
    def column(a: Column, b: Column): Column = guardCol(a + b)
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      zipLocal(a, b)((x, y) => finite(x + y))
    def sql(a: String, b: String): String = s"($a + $b)"
  }

  case object Sub extends BinaryOp {
    val name = "sub"
    def column(a: Column, b: Column): Column = guardCol(a - b)
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      zipLocal(a, b)((x, y) => finite(x - y))
    def sql(a: String, b: String): String = s"($a - $b)"
  }

  case object Mul extends BinaryOp {
    val name = "mul"
    def column(a: Column, b: Column): Column = guardCol(a * b)
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      zipLocal(a, b)((x, y) => finite(x * y))
    def sql(a: String, b: String): String = s"($a * $b)"
  }

  case object Div extends BinaryOp {
    val name = "div"
    def column(a: Column, b: Column): Column =
      guardCol(when(abs(b) < DivEps, lit(0.0)).otherwise(a / b))
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      zipLocal(a, b)((x, y) => if (math.abs(y) < DivEps) 0.0 else finite(x / y))
    def sql(a: String, b: String): String =
      s"(CASE WHEN abs($b) < $DivEps THEN 0.0 ELSE $a / $b END)"
  }

  /** ÷ with swapped operands — the paper counts non-commutative operators
    * once per argument order.
    */
  case object Vid extends BinaryOp {
    val name = "vid"
    def column(a: Column, b: Column): Column = Div.column(b, a)
    def local(a: Array[Double], b: Array[Double]): Array[Double] = Div.local(b, a)
    def sql(a: String, b: String): String = Div.sql(b, a)
  }

  // ---- unary operators (framework support; not in the paper's experiments)

  case object Square extends UnaryOp {
    val name = "square"
    def column(a: Column): Column = guardCol(a * a)
    def local(a: Array[Double]): Array[Double] = mapLocal(a)(v => finite(v * v))
    def sql(a: String): String = s"($a * $a)"
  }

  case object SqrtAbs extends UnaryOp {
    val name = "sqrtabs"
    def column(a: Column): Column = sqrt(abs(a))
    def local(a: Array[Double]): Array[Double] = mapLocal(a)(v => math.sqrt(math.abs(v)))
    def sql(a: String): String = s"sqrt(abs($a))"
  }

  case object Log1pAbs extends UnaryOp {
    val name = "log1pabs"
    def column(a: Column): Column = log(abs(a) + 1.0)
    def local(a: Array[Double]): Array[Double] = mapLocal(a)(v => math.log1p(math.abs(v)))
    def sql(a: String): String = s"ln(abs($a) + 1.0)"
  }

  case object Tanh extends UnaryOp {
    val name = "tanh"
    def column(a: Column): Column = tanh(a)
    def local(a: Array[Double]): Array[Double] = mapLocal(a)(math.tanh)
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
