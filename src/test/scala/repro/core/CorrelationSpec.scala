package repro.core

import repro.{Oracle, SparkSpec}
import repro.ml.{LocalMatrix, Rows, SparkRows}
import scala.util.Random

class CorrelationSpec extends SparkSpec {

  private lazy val mat: LocalMatrix = {
    val rng = new Random(7)
    val n = 400
    val a = Array.fill(n)(rng.nextGaussian())
    val b = a.map(v => 2 * v + rng.nextGaussian() * 0.1)  // strongly correlated with a
    val c = Array.fill(n)(rng.nextGaussian())              // independent
    val d = a.map(v => -v + rng.nextGaussian() * 0.05)     // strong negative corr
    LocalMatrix(Array("a", "b", "c", "d"),
      Array.tabulate(n)(i => Array(a(i), b(i), c(i), d(i))), Array.fill(n)(0.0))
  }

  test("matrixLocal: diagonal is 1, matrix is symmetric") {
    val m = Correlation.matrix(Rows.Local(mat), Seq("a", "b", "c"))
    for (i <- 0 until 3) assert(m(i)(i) == 1.0)
    for (i <- 0 until 3; j <- 0 until 3) assert(math.abs(m(i)(j) - m(j)(i)) < 1e-12)
  }

  test("matrixLocal captures strong positive / negative / no correlation") {
    val m = Correlation.matrix(Rows.Local(mat), Seq("a", "b", "c", "d"))
    assert(m(0)(1) > 0.95)
    assert(math.abs(m(0)(2)) < 0.2)
    assert(m(0)(3) < -0.95)
  }

  test("matrixLocal matches DuckDB corr() oracle") {
    val df = mat.toDF(spark).drop("label")
    val m = Correlation.matrix(Rows.Local(mat), Seq("a", "b"))
    import org.apache.spark.sql.functions.{corr, col}
    val sparkDf = df.agg(corr(col("a"), col("b")).as("r"))
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT corr(CAST(a AS DOUBLE), CAST(b AS DOUBLE)) AS r FROM t",
      "t" -> df)
    // and our own estimate agrees with Spark's
    val sparkVal = sparkDf.collect()(0).getDouble(0)
    assert(math.abs(m(0)(1) - sparkVal) < 1e-9)
  }

  test("matrixSpark agrees with matrixLocal to double precision") {
    val names = Seq("a", "b", "c", "d")
    val local = Correlation.matrix(Rows.Local(mat), names)
    val dist = Correlation.matrix(Rows.Blocks(SparkRows.blocks(mat.toDF(spark))), names)
    for (i <- names.indices; j <- names.indices)
      assert(math.abs(local(i)(j) - dist(i)(j)) < 1e-9, s"($i,$j)")
  }

  /** Eq. 7 by a plain triple loop: each sum, square sum and cross product is
    * one chain over the rows in order, then the kernel's formula.
    */
  private def naiveMatrix(cols: Array[Array[Double]]): Array[Array[Double]] = {
    val c = cols.length
    val n = cols.head.length
    def sum(f: Int => Double): Double = { var s = 0.0; var r = 0; while (r < n) { s += f(r); r += 1 }; s }
    val s = cols.map(ci => sum(ci(_)))
    val sq = cols.map(ci => sum(r => ci(r) * ci(r)))
    Array.tabulate(c, c) { (i, k) =>
      if (i == k) 1.0
      else {
        val (a, b) = (math.min(i, k), math.max(i, k))
        val cov = sum(r => cols(a)(r) * cols(b)(r)) - s(i) * s(k) / n
        val vi = sq(i) - s(i) * s(i) / n
        val vk = sq(k) - s(k) * s(k) / n
        if (vi <= 1e-12 || vk <= 1e-12) 0.0 else cov / math.sqrt(vi * vk)
      }
    }
  }

  test("matrix equals a naive triple loop for 1 to 9 columns, on one matrix and on 3 row blocks") {
    val rng = new Random(21)
    val n = 301
    val all = Array.fill(9)(Array.fill(n)(rng.nextGaussian() * 3 + rng.nextInt(5)))
    // Three blocks of one partition: each cell continues across them.
    val cuts = Seq(0, 100, 201, n)
    val blocks = spark.sparkContext.parallelize(Seq(0), 1).flatMap { _ =>
      cuts.sliding(2).map { case Seq(from, to) =>
        new LocalMatrix(Array.tabulate(9)(j => s"x$j"), all.map(_.slice(from, to)), new Array[Double](to - from))
      }
    }
    for (c <- 1 to 9) {
      val names = (0 until c).map(j => s"x$j")
      val expected = naiveMatrix(all.take(c)).map(_.toSeq).toSeq
      val local = Correlation.matrix(Rows.Local(new LocalMatrix(names.toArray, all.take(c), new Array[Double](n))), names)
      assert(local.map(_.toSeq).toSeq == expected, s"local, $c columns")
      val blocked = Correlation.matrix(Rows.Blocks(blocks), names)
      assert(blocked.map(_.toSeq).toSeq == expected, s"blocks, $c columns")
    }
  }

  test("matrix equals a naive triple loop at 45 columns, one part per row of the triangle") {
    val rng = new Random(22)
    val (c, n) = (45, 257)
    val cols = Array.fill(c)(Array.fill(n)(rng.nextGaussian() * 2 + rng.nextInt(3)))
    val names = (0 until c).map(j => s"x$j")
    val m = new LocalMatrix(names.toArray, cols, new Array[Double](n))
    val expected = naiveMatrix(cols).map(_.toSeq).toSeq
    assert(Correlation.matrix(Rows.Local(m), names).map(_.toSeq).toSeq == expected, "local")
    // three blocks of one partition: a Spark task runs the parts of each block in order
    val blocks = spark.sparkContext.parallelize(Seq(0), 1).flatMap { _ =>
      Seq(0, 100, 201, n).sliding(2).map { case Seq(from, to) =>
        new LocalMatrix(names.toArray, cols.map(_.slice(from, to)), new Array[Double](to - from))
      }
    }
    assert(Correlation.matrix(Rows.Blocks(blocks), names).map(_.toSeq).toSeq == expected, "blocks")
  }

  test("constant columns yield zero correlation, not NaN") {
    val m = LocalMatrix(Array("a", "k"),
      Array.tabulate(50)(i => Array(i.toDouble, 3.0)), Array.fill(50)(0.0))
    val c = Correlation.matrix(Rows.Local(m), Seq("a", "k"))
    assert(c(0)(1) == 0.0 && !c(0)(1).isNaN)
  }

  test("removeRedundant drops the lower-IV member of a correlated pair") {
    val names = Seq("a", "b", "c")
    val ivs = Map("a" -> 0.5, "b" -> 0.3, "c" -> 0.2)
    val corrM = Correlation.matrix(Rows.Local(mat), names)
    val kept = Correlation.removeRedundant(names, ivs, corrM, theta = 0.8)
    assert(kept.contains("a") && !kept.contains("b")) // |corr(a,b)|>0.95, IV a > b
    assert(kept.contains("c"))
  }

  test("removeRedundant keeps everything when no pair crosses theta") {
    val names = Seq("a", "c")
    val ivs = Map("a" -> 0.5, "c" -> 0.2)
    val corrM = Correlation.matrix(Rows.Local(mat), names)
    assert(Correlation.removeRedundant(names, ivs, corrM).toSet == Set("a", "c"))
  }

  test("removeRedundant counts negative correlation as redundancy") {
    val names = Seq("a", "d")
    val ivs = Map("a" -> 0.5, "d" -> 0.1)
    val corrM = Correlation.matrix(Rows.Local(mat), names)
    val kept = Correlation.removeRedundant(names, ivs, corrM)
    assert(kept == Seq("a"))
  }

  test("removeRedundant on a fully correlated clique keeps exactly one") {
    val names = Seq("a", "b", "d")
    val ivs = Map("a" -> 0.3, "b" -> 0.6, "d" -> 0.1)
    val corrM = Correlation.matrix(Rows.Local(mat), names)
    val kept = Correlation.removeRedundant(names, ivs, corrM)
    assert(kept == Seq("b")) // highest IV of the clique
  }

  test("removeRedundant validates matrix dimensions") {
    intercept[IllegalArgumentException] {
      Correlation.removeRedundant(Seq("a", "b"), Map.empty, Array(Array(1.0)))
    }
  }

  test("default theta matches the paper (0.8)") {
    assert(Correlation.DefaultTheta == 0.8)
  }
}
