package repro.core

/** Operator registry (§III of the paper).
  *
  * Every operator carries two synchronized faces:
  *   - `local`: the computation on column arrays, which Ψ's one evaluator
  *     (`FeaturePlan.applyLocal`) runs wherever the rows live;
  *   - `sql`: equivalent standard SQL, the DuckDB oracle's check of `local`.
  *
  * All operators force finite outputs: `÷` maps |denominator| < 1e-12 to 0
  * (in both faces), and the local face zeroes non-finite results.
  * Non-commutative operators are modelled as distinct operators per the
  * paper (`÷` appears as `div` and `vid` = reversed division).
  */
object Operators {

  val DivEps = 1e-12

  sealed trait Op { def name: String; def arity: Int }

  trait UnaryOp extends Op {
    final val arity = 1
    def local(a: Array[Double]): Array[Double]
    def sql(a: String): String
  }

  trait BinaryOp extends Op {
    final val arity = 2
    def local(a: Array[Double], b: Array[Double]): Array[Double]
    def sql(a: String, b: String): String
  }

  private def finite(v: Double): Double = if (java.lang.Double.isFinite(v)) v else 0.0

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
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      zipLocal(a, b)((x, y) => finite(x + y))
    def sql(a: String, b: String): String = s"($a + $b)"
  }

  case object Sub extends BinaryOp {
    val name = "sub"
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      zipLocal(a, b)((x, y) => finite(x - y))
    def sql(a: String, b: String): String = s"($a - $b)"
  }

  case object Mul extends BinaryOp {
    val name = "mul"
    def local(a: Array[Double], b: Array[Double]): Array[Double] =
      zipLocal(a, b)((x, y) => finite(x * y))
    def sql(a: String, b: String): String = s"($a * $b)"
  }

  case object Div extends BinaryOp {
    val name = "div"
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
    def local(a: Array[Double], b: Array[Double]): Array[Double] = Div.local(b, a)
    def sql(a: String, b: String): String = Div.sql(b, a)
  }

  // ---- unary operators (framework support; not in the paper's experiments)

  case object Square extends UnaryOp {
    val name = "square"
    def local(a: Array[Double]): Array[Double] = mapLocal(a)(v => finite(v * v))
    def sql(a: String): String = s"($a * $a)"
  }

  case object SqrtAbs extends UnaryOp {
    val name = "sqrtabs"
    def local(a: Array[Double]): Array[Double] = mapLocal(a)(v => math.sqrt(math.abs(v)))
    def sql(a: String): String = s"sqrt(abs($a))"
  }

  case object Log1pAbs extends UnaryOp {
    val name = "log1pabs"
    def local(a: Array[Double]): Array[Double] = mapLocal(a)(v => math.log1p(math.abs(v)))
    def sql(a: String): String = s"ln(abs($a) + 1.0)"
  }

  case object Tanh extends UnaryOp {
    val name = "tanh"
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
