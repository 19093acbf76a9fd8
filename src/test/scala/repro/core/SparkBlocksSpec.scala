package repro.core

import repro.{SparkSpec, TestData}
import repro.core.Operators.{Add, Mul}
import repro.ml.{Binning, LocalMatrix, Rows, SparkRows}

/** The Spark engine's statistics run the local kernels on row blocks
  * (`SparkRows.blocks`), so they read rows as the local engine does.
  */
class SparkBlocksSpec extends SparkSpec {

  test("blocks hold every partition's rows in order, decoded as fromDF decodes them") {
    val df = TestData.linear(3000, 3, seed = 71).toDF(spark)
    val parts = SparkRows.blocks(df).map(b => (b.names.toSeq, b.column(1).clone(), b.y.clone())).collect()
    val back = LocalMatrix.fromDF(df)
    assert(parts.length == df.rdd.getNumPartitions)
    assert(parts.forall(_._1 == back.names.toSeq))
    assert(parts.flatMap(_._2).sameElements(back.column(1)))
    assert(parts.flatMap(_._3).sameElements(back.y))
    // a cached frame (its scan hands out one row object again and again) with
    // partitions of several blocks: every cell is the source matrix's
    val m = TestData.linear(10000, 3, seed = 74)
    val cached = m.toDF(spark).coalesce(2).cache()
    try {
      val blocks = SparkRows.blocks(cached).map(b => (b.rows, Array.tabulate(b.cols)(b.column(_).clone()), b.y.clone()))
        .collect()
      assert(blocks.map(_._1).toSeq == Seq(4096, 904, 4096, 904))
      m.names.indices.foreach(j => assert(blocks.flatMap(_._2(j)).sameElements(m.column(j)), s"column $j"))
      assert(blocks.flatMap(_._3).sameElements(m.y))
    } finally cached.unpersist()
  }

  test("a partition of several blocks gives the local IV and Pearson values exactly") {
    val df = TestData.linear(9000, 4, seed = 72).toDF(spark).coalesce(1)
    val blocks = SparkRows.blocks(df)
    val sizes = blocks.map(_.rows).collect()
    assert(sizes.length > 1 && sizes.sum == 9000, sizes.toSeq)
    val local = LocalMatrix.fromDF(df)
    val names = local.names.toSeq
    assert(Correlation.matrix(Rows.Blocks(blocks), names).map(_.toSeq).toSeq ==
      Correlation.matrix(Rows.Local(local), names).map(_.toSeq).toSeq)
    val edges = Binning.fitLocal(local, 10)
    assert(InfoValue.ivAll(Rows.Blocks(blocks), names, edges) == InfoValue.ivAll(Rows.Local(local), names, edges))
  }

  test("sumPartitions adds partials in partition order, from zeros") {
    // 1e16 + 1 rounds back to 1e16: in partition order the sum is 0; adding 1e16 and -1e16 first gives 1
    val rdd = spark.sparkContext.parallelize(Seq(1e16, 1.0, -1e16), 3)
    val sum = SparkRows.sumPartitions(rdd, 2) { (acc, v) => acc(0) += v; acc(1) += 1 }
    assert(sum.toSeq == Seq(0.0, 3.0))
    val none = SparkRows.sumPartitions(spark.sparkContext.emptyRDD[Double], 2)((acc, v) => acc(0) += v)
    assert(none.toSeq == Seq(0.0, 0.0))
  }

  test("the Spark engine reads NaN inputs of generated features as the local engine does") {
    val m = TestData.planted(400, 3, seed = 73)
    val x = m.x.zipWithIndex.map { case (r, i) => if (i % 50 == 0) r.updated(0, Double.NaN) else r }
    val df = LocalMatrix(m.names, x, m.y).toDF(spark).cache()
    val gs = Seq(GenFeature(Add, Seq("x0", "x1")), GenFeature(Mul, Seq("x0", "x2")))
    val names = m.names.toSeq ++ gs.map(_.name)
    val sparkEngine = new Safe.SparkEngine(df, "label", sampleCap = 1000, seed = 0)
    val localEngine = new Safe.LocalEngine(LocalMatrix.fromDF(df), sampleCap = 1000, seed = 0)
    Seq(sparkEngine, localEngine).foreach(_.addGenerated(gs))
    assert(sparkEngine.ivAll(names, 10) == localEngine.ivAll(names, 10))
    val dist = sparkEngine.corrMatrix(names)
    val local = localEngine.corrMatrix(names)
    for (i <- names.indices; k <- names.indices)
      assert(math.abs(dist(i)(k) - local(i)(k)) < 1e-12, s"(${names(i)}, ${names(k)})")
    def splits(e: Safe.Engine) = e.trainGbdt(names).trees.map(_.map(n => (n.feature, n.binThr)).toSeq).toSeq
    assert(splits(sparkEngine) == splits(localEngine))
    df.unpersist()
  }
}
