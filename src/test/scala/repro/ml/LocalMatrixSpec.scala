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

  test("select by index preserves order") {
    val s = sample.select(Seq(2, 0))
    assert(s.names.sameElements(Array("c", "a")))
    assert(s.x(1).sameElements(Array(6.0, 4.0)))
    assert(s.y.sameElements(sample.y))
  }

  test("selectNames resolves positions") {
    val s = sample.selectNames(Seq("b"))
    assert(s.cols == 1 && s.column(0).sameElements(Array(2.0, 5.0, 8.0)))
  }

  test("takeRows subsets rows and labels together") {
    val s = sample.takeRows(Array(2, 0))
    assert(s.rows == 2)
    assert(s.x(0)(0) == 7.0 && s.y(0) == 0.0)
    assert(s.x(1)(0) == 1.0 && s.y(1) == 0.0)
  }

  test("withColumns appends and rejects duplicates") {
    val s = sample.withColumns(Array("d"), Array(Array(10.0, 11.0, 12.0)))
    assert(s.cols == 4 && s.names.last == "d")
    assert(s.column(3).sameElements(Array(10.0, 11.0, 12.0)))
    intercept[IllegalArgumentException] {
      sample.withColumns(Array("a"), Array(Array(0.0, 0.0, 0.0)))
    }
  }

  test("x equals the columns transposed after select, takeRows and withColumns") {
    def transposed(m: LocalMatrix): Seq[Seq[Double]] =
      (0 until m.rows).map(i => (0 until m.cols).map(j => m.column(j)(i)))
    val selected = sample.select(Seq(2, 0))
    val taken = selected.takeRows(Array(2, 0, 1))
    val appended = taken.withColumns(Array("d"), Array(Array(10.0, 11.0, 12.0)))
    Seq(sample, selected, taken, appended).foreach { m =>
      assert(m.x.map(_.toSeq).toSeq == transposed(m))
    }
    assert(appended.x(0).sameElements(Array(9.0, 7.0, 10.0)))
  }

  test("select, selectNames and withColumns share columns instead of copying") {
    val m = sample
    assert(m.select(Seq(2, 0)).column(1) eq m.column(0))
    assert(m.selectNames(Seq("b")).column(0) eq m.column(1))
    val d = Array(10.0, 11.0, 12.0)
    val w = m.withColumns(Array("d"), Array(d))
    assert((w.column("d") eq d) && (w.column("a") eq m.column("a")))
  }

  test("row/label length mismatch is rejected") {
    intercept[IllegalArgumentException] {
      LocalMatrix(Array("a"), Array(Array(1.0)), Array(1.0, 0.0))
    }
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
