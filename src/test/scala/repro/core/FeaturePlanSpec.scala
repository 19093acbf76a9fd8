package repro.core

import repro.{Oracle, SparkSpec, TestData}
import repro.core.Operators._

class FeaturePlanSpec extends SparkSpec {

  private lazy val mat = TestData.planted(150, 4, seed = 31)

  private val g1 = GenFeature(Mul, Seq("x0", "x1"))
  private val g2 = GenFeature(Add, Seq(g1.name, "x2")) // depends on g1
  private val g3 = GenFeature(Sub, Seq("x0", "x3"))    // will be dropped

  test("GenFeature name is machine safe and deterministic") {
    assert(g1.name == "mul__x0__x1")
    assert(g2.name == "add__mul__x0__x1__x2")
  }

  test("GenFeature arity is validated") {
    intercept[IllegalArgumentException](GenFeature(Mul, Seq("x0")))
    intercept[IllegalArgumentException](GenFeature(Square, Seq("x0", "x1")))
  }

  test("neededGenerated keeps transitive dependencies, prunes unused") {
    val plan = FeaturePlan(Seq(g1, g3, g2), keep = Seq("x0", g2.name))
    assert(plan.neededGenerated.map(_.name) == Seq(g1.name, g2.name))
  }

  test("applyLocal computes chained features correctly") {
    val plan = FeaturePlan(Seq(g1, g2), keep = Seq("x0", g1.name, g2.name))
    val out = plan.applyLocal(mat)
    assert(out.names.sameElements(Array("x0", g1.name, g2.name)))
    for (i <- 0 until mat.rows) {
      val expected1 = mat.x(i)(0) * mat.x(i)(1)
      val expected2 = expected1 + mat.x(i)(2)
      assert(math.abs(out.x(i)(1) - expected1) < 1e-12)
      assert(math.abs(out.x(i)(2) - expected2) < 1e-12)
    }
    assert(out.y.sameElements(mat.y))
  }

  test("transform (Catalyst) agrees with applyLocal row-for-row") {
    val plan = FeaturePlan(Seq(g1, g2, g3), keep = Seq("x0", g2.name, g3.name))
    val local = plan.applyLocal(mat)
    val df = plan.transform(mat.toDF(spark))
    val back = repro.ml.LocalMatrix.fromDF(df)
    assert(back.names.sameElements(local.names))
    val localSet = local.x.map(_.map(v => f"$v%.9f").mkString(",")).sorted
    val sparkSet = back.x.map(_.map(v => f"$v%.9f").mkString(",")).sorted
    assert(localSet.sameElements(sparkSet))
  }

  test("local engine, batch, per-record and Catalyst Ψ agree value for value on a chained plan") {
    val plan = FeaturePlan(Seq(g1, g3, g2), keep = Seq("x0", g1.name, g2.name))
    val engine = new Safe.LocalEngine(mat, sampleCap = 1000, seed = 0)
    engine.addGenerated(Seq(g1, g3))
    engine.addGenerated(Seq(g2)) // g2 reads g1, added in an earlier batch
    val current = engine.current
    assert(current.names.sameElements(mat.names ++ Seq(g1.name, g3.name, g2.name)))

    val batch = plan.applyLocal(mat)
    assert(batch.names.sameElements(plan.keep))
    plan.keep.foreach(n => assert(current.column(n).sameElements(batch.column(n)), n))
    for (i <- 0 until mat.rows)
      assert(plan.applyLocal(mat.takeRows(Array(i))).x(0).sameElements(batch.x(i)), s"record $i")

    val rows = plan.transform(mat.toDF(spark), labelCol = None).collect()
    assert(rows.length == mat.rows)
    for (i <- rows.indices; j <- plan.keep.indices)
      assert(rows(i).getDouble(j) == batch.column(j)(i), s"Catalyst row $i, ${plan.keep(j)}")
  }

  test("applyLocal and transform reject a generated name that collides with an input column") {
    val clash = mat.withColumns(Array(g1.name), Array(mat.column("x2")))
    val plan = FeaturePlan(Seq(g1), keep = Seq("x0", g1.name))
    intercept[IllegalArgumentException](plan.applyLocal(clash))
    intercept[IllegalArgumentException](plan.transform(clash.toDF(spark)))
  }

  test("transform works for real-time inference on a 1-row DataFrame") {
    val plan = FeaturePlan(Seq(g1, g2), keep = Seq(g2.name))
    val one = mat.takeRows(Array(0))
    val df = plan.transform(one.toDF(spark))
    val rows = df.collect()
    assert(rows.length == 1)
    val expected = mat.x(0)(0) * mat.x(0)(1) + mat.x(0)(2)
    assert(math.abs(rows(0).getDouble(0) - expected) < 1e-9)
  }

  test("transform passes the label through when present, omits when absent") {
    val plan = FeaturePlan(Seq(g1), keep = Seq("x0", g1.name))
    val withLabel = plan.transform(mat.toDF(spark))
    assert(withLabel.columns.contains("label"))
    val noLabel = plan.transform(mat.toDF(spark).drop("label"))
    assert(!noLabel.columns.contains("label"))
  }

  test("single-level plan matches the DuckDB oracle end-to-end") {
    val plan = FeaturePlan(Seq(g1, g3), keep = Seq("x0", g1.name, g3.name))
    val df = plan.transform(mat.toDF(spark), labelCol = None)
      .withColumnRenamed(g1.name, "f1").withColumnRenamed(g3.name, "f2")
    val cast = "(SELECT " + mat.names.map(n => s"CAST($n AS DOUBLE) AS $n").mkString(", ") + " FROM t)"
    Oracle.assertEquivalent(
      df,
      s"SELECT x0, ${g1.sql} AS f1, ${g3.sql} AS f2 FROM $cast",
      "t" -> mat.toDF(spark).drop("label"))
  }

  test("describe lists definitions and the output set") {
    val plan = FeaturePlan(Seq(g1, g2), keep = Seq("x0", g2.name))
    val d = plan.describe
    assert(d.exists(_.contains("mul__x0__x1 =")))
    assert(d.last.startsWith("output = ["))
  }

  test("duplicate keep names are rejected") {
    intercept[IllegalArgumentException](FeaturePlan(Nil, Seq("x0", "x0")))
  }

  test("empty plan is the identity projection") {
    val plan = FeaturePlan(Nil, mat.names.toSeq)
    val out = plan.applyLocal(mat)
    assert(out.names.sameElements(mat.names))
    assert(out.x(3).sameElements(mat.x(3)))
  }
}
