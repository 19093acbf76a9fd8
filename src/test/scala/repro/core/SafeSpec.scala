package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import repro.{SparkSpec, TestData}
import repro.data.SynthClass
import repro.ml.{Binning, Gbdt, GbdtParams, Linear, LocalMatrix, Metrics, Rows}

class SafeSpec extends SparkSpec {

  private val fastCfg = SafeConfig(gbdt = GbdtParams(numTrees = 10, maxDepth = 3))

  private lazy val train = TestData.planted(800, 6, seed = 51)
  private lazy val test = TestData.planted(400, 6, seed = 52)

  test("fitLocal returns a non-empty plan within the 2M cap") {
    val res = Safe.fitLocal(train, fastCfg)
    assert(res.plan.keep.nonEmpty)
    assert(res.plan.width <= 2 * train.cols)
    assert(res.reports.length == 1)
  }

  test("pipeline report stage counts are monotone non-increasing") {
    val res = Safe.fitLocal(train, fastCfg)
    val r = res.reports.head
    assert(r.candidates >= r.afterIv)
    assert(r.afterIv >= r.afterCorr)
    assert(r.afterCorr >= r.selected)
    assert(r.generated <= r.combosMined * fastCfg.binaryOps.length)
  }

  test("SAFE mines the planted interaction (a mul/div of x0,x1 is generated)") {
    val res = Safe.fitLocal(train, fastCfg)
    val genNames = res.plan.generated.map(_.name)
    assert(genNames.exists(n => n.contains("x0") && n.contains("x1")), genNames.take(10))
  }

  test("SAFE features improve a linear model on interaction data") {
    // LR can't represent x0*x1; SAFE's generated product makes it learnable.
    val res = Safe.fitLocal(train, fastCfg)
    val origAuc = Metrics.auc(test.y, Linear.fitLogistic(train).predictProba(test))
    val trNew = res.plan.applyLocal(train)
    val teNew = res.plan.applyLocal(test)
    val safeAuc = Metrics.auc(teNew.y, Linear.fitLogistic(trNew).predictProba(teNew))
    assert(safeAuc > origAuc + 0.05, s"orig=$origAuc safe=$safeAuc")
  }

  test("selected features carry IV above threshold or fallback applies") {
    val res = Safe.fitLocal(train, fastCfg)
    val trNew = res.plan.applyLocal(train)
    val ivs = InfoValue.ivAll(Rows.Local(trNew), trNew.names.toSeq, Binning.fitLocal(trNew, InfoValue.DefaultBins))
    // at least the top selected feature must be a medium+ predictor
    assert(ivs.values.max > 0.1)
  }

  test("no pair of selected features exceeds the Pearson threshold") {
    val res = Safe.fitLocal(train, fastCfg)
    val trNew = res.plan.applyLocal(train)
    val names = trNew.names.toSeq
    val corr = Correlation.matrix(Rows.Local(trNew), names)
    for (i <- names.indices; j <- (i + 1) until names.length)
      assert(math.abs(corr(i)(j)) <= Correlation.DefaultTheta + 1e-9,
        s"${names(i)} vs ${names(j)}: ${corr(i)(j)}")
  }

  test("deterministic given the same seed") {
    val a = Safe.fitLocal(train, fastCfg.copy(seed = 5))
    val b = Safe.fitLocal(train, fastCfg.copy(seed = 5))
    assert(a.plan.keep == b.plan.keep)
  }

  test("multi-iteration run produces reports per iteration and a valid plan") {
    val res = Safe.fitLocal(train, fastCfg.copy(nIter = 3))
    assert(res.reports.length == 3)
    val out = res.plan.applyLocal(test)
    assert(out.cols == res.plan.width)
    out.x.foreach(r => r.foreach(v => assert(java.lang.Double.isFinite(v))))
  }

  test("multi-iteration AUC does not collapse versus single iteration") {
    val res1 = Safe.fitLocal(train, fastCfg)
    val res3 = Safe.fitLocal(train, fastCfg.copy(nIter = 3))
    def aucOf(res: SafeResult): Double = {
      val tr = res.plan.applyLocal(train); val te = res.plan.applyLocal(test)
      Metrics.auc(te.y, Gbdt.fit(tr, fastCfg.gbdt).predictProba(te))
    }
    val a1 = aucOf(res1); val a3 = aucOf(res3)
    assert(a3 > a1 - 0.05, s"iter1=$a1 iter3=$a3")
  }

  test("RAND variant generates from random pairs and respects the cap") {
    val res = Safe.fitLocal(train, fastCfg, RandomCombos)
    assert(res.plan.width <= 2 * train.cols)
    assert(res.plan.generated.nonEmpty)
  }

  test("IMP variant only pairs split features") {
    val res = Safe.fitLocal(train, fastCfg, ImportantCombos)
    val model = Gbdt.fit(train, fastCfg.gbdt)
    val split = model.splitFeatures.map(model.names(_)).toSet
    if (split.size >= 2) {
      res.plan.generated.foreach(g => g.inputs.foreach(in => assert(split.contains(in), in)))
    }
  }

  test("unary operators flow through when configured") {
    val cfg = fastCfg.copy(unaryOps = Seq(Operators.Square), binaryOps = Nil)
    val res = Safe.fitLocal(train, cfg)
    assert(res.plan.generated.forall(_.op.arity == 1))
  }

  test("randomPairs yields distinct unordered pairs") {
    val rng = new scala.util.Random(3)
    val pairs = Safe.randomPairs(Seq("a", "b", "c", "d"), 6, rng)
    assert(pairs.length == 6)
    assert(pairs.map(_.key).distinct.length == 6)
    pairs.foreach(p => assert(p.features.length == 2 && p.features(0) != p.features(1)))
  }

  test("randomPairs caps at the number of available pairs") {
    val rng = new scala.util.Random(4)
    assert(Safe.randomPairs(Seq("a", "b"), 10, rng).length == 1)
    assert(Safe.randomPairs(Seq("a"), 10, rng).isEmpty)
  }

  test("fitSpark produces an equivalent-quality plan on the same data") {
    val df = train.toDF(spark).cache()
    df.count()
    val res = Safe.fitSpark(df, "label", fastCfg)
    assert(res.plan.keep.nonEmpty)
    assert(res.plan.width <= 2 * train.cols)
    // spark-selected features also help the linear model
    val trNew = res.plan.applyLocal(train)
    val teNew = res.plan.applyLocal(test)
    val origAuc = Metrics.auc(test.y, Linear.fitLogistic(train).predictProba(test))
    val sparkAuc = Metrics.auc(teNew.y, Linear.fitLogistic(trNew).predictProba(teNew))
    assert(sparkAuc > origAuc, s"orig=$origAuc spark=$sparkAuc")
    df.unpersist()
  }

  /** `fitLocal` and `fitSpark` results on the same rows. */
  private def bothEngines(m: LocalMatrix, cfg: SafeConfig): (SafeResult, SafeResult) = {
    val df = m.toDF(spark).cache()
    df.count()
    try (Safe.fitLocal(m, cfg), Safe.fitSpark(df, "label", cfg))
    finally df.unpersist()
  }

  test("fitSpark plan equals fitLocal's when every row is in the edge sample") {
    val cases = Seq(train -> fastCfg, TestData.planted(3000, 20, seed = 8) -> fastCfg.copy(maxOutFactor = 1.0))
    val reports = cases.map { case (m, cfg) =>
      assert(m.rows <= cfg.igSampleCap)
      val (local, dist) = bothEngines(m, cfg)
      assert(dist.plan.generated == local.plan.generated)
      assert(dist.plan.keep == local.plan.keep)
      local.reports.head
    }
    // the second case reaches the ranking GBDT: more survive Pearson than the cap keeps
    assert(reports(1).afterCorr > reports(1).selected, reports(1))
  }

  // Data2's redundant copies tie in split gain to ~1e-15, so a GBDT sum that
  // depended on the merge order of Spark's partials would break the ties
  // differently from fit to fit.
  test("fitSpark grows fitLocal's plan in each of three fits of a Data2 look-alike") {
    val spec = SynthClass.specByName("Data2").copy(nTrain = 4000, nValid = 0, nTest = 1000, posRate = 0.10)
    val m = SynthClass.generate(spec, 2).train
    val df = m.toDF(spark).cache()
    df.count()
    try {
      val local = Safe.fitLocal(m, SafeConfig()).plan
      (1 to 3).foreach { run =>
        val dist = Safe.fitSpark(df, "label", SafeConfig()).plan
        assert(dist.generated == local.generated && dist.keep == local.keep, s"fit $run")
      }
    } finally df.unpersist()
  }

  test("fitSpark leaves the persisted RDDs as it found them and repeats its plan") {
    val df = train.toDF(spark).cache()
    df.count()
    val sc = spark.sparkContext
    try {
      val before = sc.getPersistentRDDs.keySet
      val plans = Seq.fill(2) {
        val plan = Safe.fitSpark(df, "label", fastCfg).plan
        assert(sc.getPersistentRDDs.keySet == before)
        plan
      }
      assert(plans(0).generated == plans(1).generated && plans(0).keep == plans(1).keep)
    } finally df.unpersist()
  }

  test("the local engine takes IV and GBDT edges from its sample when N exceeds the cap") {
    val m = TestData.planted(2000, 6, seed = 14)
    val engine = new Safe.LocalEngine(m, sampleCap = 500, seed = 3)
    val gs = Seq(GenFeature(Operators.Mul, Seq("x0", "x1")))
    engine.addGenerated(gs)
    val names = m.names.toSeq ++ gs.map(_.name)
    val sample = engine.scoringMatrix(names)
    assert(sample.rows == 500)
    val all = FeaturePlan(gs, names).applyLocal(m)
    val ivs = engine.ivAll(names, 10)
    assert(ivs == InfoValue.ivAll(Rows.Local(all), names, Binning.fitLocal(sample, 10)))
    assert(ivs != InfoValue.ivAll(Rows.Local(all), names, Binning.fitLocal(all, 10)))
    assert(engine.trainGbdt(names).edges.map(_.toSeq).toSeq ==
      Binning.fitLocal(sample, engine.gbdtParams.maxBins).map(_.toSeq).toSeq)
  }

  /** Whether `a` and `b` hold the same names, and bit for bit the same columns and labels. */
  private def sameMatrix(a: LocalMatrix, b: LocalMatrix): Boolean =
    a.names.toSeq == b.names.toSeq && java.util.Arrays.equals(a.y, b.y) &&
      a.names.indices.forall(j => java.util.Arrays.equals(a.column(j), b.column(j)))

  test("fitSpark plan equals fitLocal's above the cap") {
    // (rows, features, data seed, igSampleCap)
    Seq((2000, 6, 14, 500), (3000, 8, 3, 1000), (2500, 10, 5, 700)).foreach { case (n, f, seed, cap) =>
      val m = TestData.planted(n, f, seed)
      val cfg = SafeConfig(igSampleCap = cap)
      val df = m.toDF(spark).cache()
      df.count()
      try {
        val local = Safe.fitLocal(m, cfg).plan
        val dist = Safe.fitSpark(df, "label", cfg).plan
        assert(dist.generated == local.generated, s"draw $seed")
        assert(dist.keep == local.keep, s"draw $seed")
        val names = m.names.toSeq
        val sample = new Safe.SparkEngine(df, "label", cap, cfg.seed).scoringMatrix(names)
        assert(sample.rows == cap)
        assert(sameMatrix(sample, new Safe.LocalEngine(m, cap, cfg.seed).scoringMatrix(names)), s"draw $seed")
      } finally df.unpersist()
    }
  }

  test("samplePositions draws the seeded shuffle's first cap rows, ascending") {
    Seq((2000, 500, 3L), (200000, 100000, 0L)).foreach { case (n, cap, seed) =>
      val p = Safe.samplePositions(n, cap, seed)
      assert(p.toSeq == new scala.util.Random(seed).shuffle((0 until n).toList).take(cap).sorted, (n, cap, seed))
      assert(p.length == cap && p.head >= 0 && p.last < n)
      assert((1 until cap).forall(i => p(i - 1) < p(i)), "ascending and distinct")
    }
  }

  test("the Spark sample takes rows in frame order over uneven partitions") {
    val m = TestData.planted(1200, 4, seed = 31)
    val rows = m.x.indices.map(i => Row.fromSeq(m.x(i).toSeq :+ m.y(i)))
    val sc = spark.sparkContext
    // a plain parallelize of 1 200 rows fills every slice evenly; this union keeps
    // row order in partitions of 150, 150, 0, 450 and 450 rows
    val rdd = sc.union(sc.parallelize(rows.take(300), 2), sc.parallelize(Seq.empty[Row], 1), sc.parallelize(rows.drop(300), 2))
    val df = spark.createDataFrame(rdd, StructType((m.names.toSeq :+ "label").map(StructField(_, DoubleType))))
    assert(df.rdd.glom().map(_.length).collect().toSeq == Seq(150, 150, 0, 450, 450))
    val sample = new Safe.SparkEngine(df, "label", sampleCap = 500, seed = 7).scoringMatrix(m.names.toSeq)
    assert(sameMatrix(sample, m.takeRows(Safe.samplePositions(1200, 500, 7))))
  }

  test("fitSpark plan transform runs on a 1-row DataFrame (real-time inference)") {
    val df = train.toDF(spark)
    val res = Safe.fitSpark(df, "label", fastCfg)
    val one = test.takeRows(Array(0)).toDF(spark).drop("label")
    val out = res.plan.transform(one, labelCol = None)
    assert(out.count() == 1)
    assert(out.columns.length == res.plan.width)
  }

  /** `m`'s rows with labels `y` and feature names `names`, as a frame. */
  private def frame(names: Seq[String], m: LocalMatrix, y: Array[Double]): DataFrame = {
    val schema = StructType((names :+ "label").map(StructField(_, DoubleType)))
    spark.createDataFrame(spark.sparkContext.parallelize(m.x.indices.map(i => Row.fromSeq(m.x(i).toSeq :+ y(i))), 2), schema)
  }

  /** Asserts that `fit` fails with an `IllegalArgumentException` that names `problem`. */
  private def rejects(problem: String)(fit: => Any): Unit = {
    val e = intercept[IllegalArgumentException](fit)
    assert(e.getMessage.contains(problem), e.getMessage)
  }

  test("both engines reject an empty training set") {
    val empty = train.takeRows(Array.emptyIntArray)
    rejects("at least one row")(Safe.fitLocal(empty, fastCfg))
    rejects("at least one row")(Safe.fitSpark(empty.toDF(spark), "label", fastCfg))
  }

  test("both engines reject labels other than 0 and 1") {
    val y = train.y.map(_ * 2)
    rejects("labels must be 0.0 or 1.0")(Safe.fitLocal(LocalMatrix(train.names, train.x, y), fastCfg))
    rejects("labels must be 0.0 or 1.0")(Safe.fitSpark(frame(train.names.toSeq, train, y), "label", fastCfg))
  }

  test("both engines reject duplicate feature names before fitting") {
    val names = train.names.toSeq.updated(3, "x1")
    rejects("duplicate feature names: x1")(
      Safe.fitLocal(new LocalMatrix(names.toArray, Array.tabulate(train.cols)(train.column), train.y), fastCfg))
    rejects("duplicate feature names: x1")(Safe.fitSpark(frame(names, train, train.y), "label", fastCfg))
  }
}
