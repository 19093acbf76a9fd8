package repro.ml

import repro.SparkSpec

class LocalMatrixSpec extends SparkSpec {

  private def sample: LocalMatrix = LocalMatrix(
    Array("a", "b", "c"),
    Array(Array(1.0, 2.0, 3.0), Array(4.0, 5.0, 6.0), Array(7.0, 8.0, 9.0)),
    Array(0.0, 1.0, 0.0))

  test("column extraction") {
    assert(sample.column(1).sameElements(Array(2.0, 5.0, 8.0)))
  }

  test("selectNames resolves positions") {
    val s = sample.selectNames(Seq("b"))
    assert(s.cols == 1 && s.column(0).sameElements(Array(2.0, 5.0, 8.0)))
  }

  test("selectNames preserves the requested order") {
    val s = sample.selectNames(Seq("c", "a"))
    assert(s.names.sameElements(Array("c", "a")))
    assert(s.x(1).sameElements(Array(6.0, 4.0)))
    assert(s.y.sameElements(sample.y))
  }

  test("takeRows subsets rows and labels together") {
    val s = sample.takeRows(Array(2, 0))
    assert(s.rows == 2)
    assert(s.x(0)(0) == 7.0 && s.y(0) == 0.0)
    assert(s.x(1)(0) == 1.0 && s.y(1) == 0.0)
  }

  test("x equals the columns transposed after selectNames and takeRows") {
    def transposed(m: LocalMatrix): Seq[Seq[Double]] =
      (0 until m.rows).map(i => (0 until m.cols).map(j => m.column(j)(i)))
    val selected = sample.selectNames(Seq("c", "a"))
    val taken = selected.takeRows(Array(2, 0, 1))
    Seq(sample, selected, taken).foreach { m =>
      assert(m.x.map(_.toSeq).toSeq == transposed(m))
    }
    assert(taken.x(0).sameElements(Array(9.0, 7.0)))
  }

  test("selectNames shares columns instead of copying") {
    val m = sample
    assert(m.selectNames(Seq("c", "a")).column(1) eq m.column(0))
    assert(m.selectNames(Seq("b")).column(0) eq m.column(1))
  }

  test("row/label length mismatch is rejected") {
    intercept[IllegalArgumentException] {
      LocalMatrix(Array("a"), Array(Array(1.0)), Array(1.0, 0.0))
    }
  }

  test("labels other than 0.0 and 1.0 are rejected, also when decoded from a frame") {
    Seq(2.0, -1.0, 0.5, Double.NaN).foreach { bad =>
      intercept[IllegalArgumentException](new LocalMatrix(Array("a"), Array(Array(1.0, 2.0)), Array(1.0, bad)))
    }
    assert(new LocalMatrix(Array("a"), Array(Array(1.0, 2.0)), Array(-0.0, 1.0)).rows == 2)
    val df = sample.toDF(spark).withColumn("label", org.apache.spark.sql.functions.col("label") * 3)
    intercept[IllegalArgumentException](LocalMatrix.fromDF(df))
  }

  test("toDF/fromDF roundtrip preserves values, names and labels") {
    val df = sample.toDF(spark)
    assert(df.columns.sameElements(Array("a", "b", "c", "label")))
    val back = LocalMatrix.fromDF(df)
    assert(back.names.sameElements(sample.names))
    // row order may change through Spark; compare as sets of rows
    val origRows = sample.x.zip(sample.y).map { case (r, y) => (r.toSeq, y) }.toSet
    val backRows = back.x.zip(back.y).map { case (r, y) => (r.toSeq, y) }.toSet
    assert(origRows == backRows)
    // one partition (empty and < 1 000 rows) and several of unequal size:
    // collect reads partitions in order, so the round trip keeps row order
    Seq(0, 7, 3001).foreach { n =>
      val m = indexed(n)
      val again = LocalMatrix.fromDF(m.toDF(spark))
      assert(again.names.sameElements(m.names), s"n=$n")
      assert((0 until m.cols).forall(j => again.column(j).sameElements(m.column(j))), s"n=$n")
      assert(again.y.sameElements(m.y), s"n=$n")
    }
  }

  /** Column `i` holds the row index, `v` a value per row, labels alternate. */
  private def indexed(n: Int): LocalMatrix = new LocalMatrix(
    Array("i", "v"),
    Array(Array.tabulate(n)(_.toDouble), Array.tabulate(n)(r => math.sin(r.toDouble))),
    Array.tabulate(n)(r => (r % 2).toDouble))

  test("toDF partition p holds rows [p*n/k, (p+1)*n/k) in order") {
    val n = 3001 // k = 3 partitions, n not divisible by k
    val parts = indexed(n).toDF(spark).rdd.glom().collect()
    val k = parts.length
    assert(k == 3)
    parts.zipWithIndex.foreach { case (rows, p) =>
      val expected = (p.toLong * n / k until (p + 1).toLong * n / k).map(_.toDouble)
      assert(rows.map(_.getDouble(0)).toSeq == expected, s"partition $p")
      assert(rows.forall(r => r.getDouble(1) == math.sin(r.getDouble(0)) && r.getDouble(2) == r.getDouble(0) % 2))
    }
  }

  test("toDF tasks carry no rows: every partition serializes under 2 KB") {
    Seq(2000, 20000).foreach { n =>
      val rng = new scala.util.Random(n)
      val m = new LocalMatrix(Array.tabulate(20)(j => s"x$j"), Array.fill(20)(Array.fill(n)(rng.nextDouble())),
        Array.tabulate(n)(r => (r % 2).toDouble))
      m.toDF(spark).rdd.partitions.foreach { part =>
        val bytes = new java.io.ByteArrayOutputStream()
        val out = new java.io.ObjectOutputStream(bytes)
        out.writeObject(part)
        out.close()
        assert(bytes.size < 2048, s"$n rows: partition ${part.index} serializes to ${bytes.size} bytes")
      }
    }
  }

  test("fromDF zeroes non-finite values") {
    import org.apache.spark.sql.functions._
    val df = sample.toDF(spark).withColumn("a", when(col("a") === 1.0, lit(Double.NaN)).otherwise(col("a")))
    val back = LocalMatrix.fromDF(df)
    assert(back.x.forall(r => java.lang.Double.isFinite(r(0))))
  }

  test("fromDF requires a label column") {
    val df = sample.toDF(spark).drop("label")
    intercept[IllegalArgumentException](LocalMatrix.fromDF(df))
  }
}
