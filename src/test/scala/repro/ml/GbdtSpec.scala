package repro.ml

import org.apache.spark.ml.classification.GBTClassifier
import org.apache.spark.ml.linalg.{Vector, Vectors}
import repro.{SparkSpec, TestData}

/** `LocalHist` without the margin cache: every pass re-scores each row under
  * all of `prevTrees`. The reference the cached margins must reproduce.
  */
private final class RescoringHist(bins: Array[Array[Byte]], labels: Array[Double]) extends HistBackend {
  override def numRows: Long = bins.length.toLong

  override def histograms(
      prevTrees: Array[Array[Node]],
      partial: Array[Node],
      pending: Array[Int],
      offsets: Array[Int],
      totalBins: Int): (Array[Array[Double]], Array[Array[Double]]) = {
    val flat = new Array[Double](2 * pending.length * totalBins)
    val pos = HistBackend.pendingPositions(partial.length, pending)
    bins.indices.foreach { i =>
      HistBackend.accumulate(flat, bins(i), labels(i), TreeOps.margin(prevTrees, bins(i)),
        partial, pos, offsets, totalBins)
    }
    HistBackend.unflatten(flat, pending.length, totalBins)
  }
}

class GbdtSpec extends SparkSpec {

  private lazy val xorTrain = TestData.xor(800, seed = 1)
  private lazy val xorTest = TestData.xor(400, seed = 2)

  test("GbdtParams rejects out-of-range bins") {
    intercept[IllegalArgumentException](GbdtParams(maxBins = 1))
    intercept[IllegalArgumentException](GbdtParams(maxBins = 200))
  }

  test("learns XOR (AUC > 0.9) where a linear model cannot") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 30, maxDepth = 3))
    val auc = Metrics.auc(xorTest.y, model.predictProba(xorTest))
    assert(auc > 0.9, s"auc=$auc")
    val lr = Linear.fitLogistic(xorTrain)
    val lrAuc = Metrics.auc(xorTest.y, lr.predictProba(xorTest))
    assert(lrAuc < 0.65, s"linear model should fail on XOR, got $lrAuc")
  }

  test("learns a linear signal") {
    val train = TestData.linear(800, 5, seed = 3)
    val test = TestData.linear(400, 5, seed = 4)
    val model = Gbdt.fit(train)
    assert(Metrics.auc(test.y, model.predictProba(test)) > 0.85)
  }

  test("stays near 0.5 AUC on pure-noise labels (held out)") {
    val train = TestData.noise(500, 5, seed = 5)
    val test = TestData.noise(500, 5, seed = 6)
    val model = Gbdt.fit(train, GbdtParams(numTrees = 10))
    val auc = Metrics.auc(test.y, model.predictProba(test))
    assert(auc > 0.35 && auc < 0.65, s"auc=$auc")
  }

  test("predictions are valid probabilities") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 5))
    model.predictProba(xorTest).foreach(p => assert(p >= 0 && p <= 1))
  }

  test("splitFeatures on XOR are the interacting pair, not the noise column") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 20, maxDepth = 3))
    val split = model.splitFeatures.toSet
    assert(split.contains(0) && split.contains(1), s"split=$split")
  }

  test("avgGainImportance ranks interacting features above noise") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 20, maxDepth = 3))
    val imp = model.avgGainImportance
    val noiseImp = imp.getOrElse(2, 0.0)
    assert(imp(0) > noiseImp && imp(1) > noiseImp, s"imp=$imp")
  }

  test("paths contain co-occurring split features from the same branch") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 10, maxDepth = 3))
    val paths = model.paths
    assert(paths.nonEmpty)
    // XOR needs x0 and x1 on one path of some tree
    assert(paths.exists(p => p.features.contains(0) && p.features.contains(1)))
    // every path's split values refer to its own features
    paths.foreach { p =>
      p.features.foreach(f => assert(p.splitValues.contains(f)))
      assert(p.features.distinct.length == p.features.length)
    }
  }

  test("paths are trimmed at the leaf parent (features bounded by depth)") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 5, maxDepth = 3))
    model.paths.foreach(p => assert(p.features.length <= 3))
  }

  test("single-node trees (no split possible) predict the prior") {
    val m = LocalMatrix(Array("a"), Array.fill(50)(Array(1.0)), Array.fill(50)(1.0).zipWithIndex.map {
      case (_, i) => if (i < 10) 1.0 else 0.0
    })
    val model = Gbdt.fit(m, GbdtParams(numTrees = 3))
    // constant feature → no splits → all trees single leaves
    assert(model.paths.isEmpty)
    val p = model.predictProba(Array(1.0))
    assert(p > 0.0 && p < 0.5) // prior is 20% positive
  }

  test("more trees fit the training data better") {
    val train = TestData.planted(600, 4, seed = 7)
    val small = Gbdt.fit(train, GbdtParams(numTrees = 2))
    val large = Gbdt.fit(train, GbdtParams(numTrees = 40))
    val aucSmall = Metrics.auc(train.y, small.predictProba(train))
    val aucLarge = Metrics.auc(train.y, large.predictProba(train))
    assert(aucLarge > aucSmall, s"small=$aucSmall large=$aucLarge")
  }

  test("binRow respects training edges") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 2, maxBins = 8))
    val bins = model.binRow(Array(-100.0, 0.0, 100.0))
    assert((bins(0) & 0xff) == 0)
    assert((bins(2) & 0xff) == model.edges(2).length) // top bin
  }

  test("SparkHist backend produces node-identical trees to LocalHist on shared bins") {
    val train = TestData.planted(400, 4, seed = 8)
    val params = GbdtParams(numTrees = 5, maxDepth = 3, maxBins = 16)
    val edges = Binning.fitLocal(train, params.maxBins)
    val bins = Binning.applyLocal(train, edges)
    val local = Gbdt.train(new LocalHist(bins, train.y), edges, train.names, params)
    val rdd = spark.sparkContext.parallelize(bins.zip(train.y).toIndexedSeq, 4)
    val dist = Gbdt.train(new SparkHist(rdd), edges, train.names, params)
    assert(local.trees.length == dist.trees.length)
    local.trees.zip(dist.trees).foreach { case (a, b) =>
      assert(a.length == b.length)
      a.zip(b).foreach { case (na, nb) =>
        assert(na.feature == nb.feature && na.binThr == nb.binThr)
        assert(math.abs(na.weight - nb.weight) < 1e-9)
        assert(math.abs(na.gain - nb.gain) < 1e-7)
      }
    }
  }

  private def treesOf(m: GbdtModel): Seq[Seq[Node]] = m.trees.map(_.toSeq).toSeq

  test("LocalHist's cached margins grow the same nodes as re-scoring every row") {
    val train = TestData.planted(700, 5, seed = 12)
    val params = GbdtParams(numTrees = 20, maxDepth = 4)
    val edges = Binning.fitLocal(train, params.maxBins)
    val bins = Binning.applyLocal(train, edges)
    val cached = Gbdt.train(new LocalHist(bins, train.y), edges, train.names, params)
    val rescored = Gbdt.train(new RescoringHist(bins, train.y), edges, train.names, params)
    assert(cached.trees.map(_.length).sum > 20 * 3, "trees should split")
    assert(treesOf(cached) == treesOf(rescored))
  }

  test("one LocalHist reused across train calls grows the trees of fresh backends") {
    val train = TestData.planted(700, 5, seed = 13)
    val edges = Binning.fitLocal(train, 32)
    val bins = Binning.applyLocal(train, edges)
    val shared = new LocalHist(bins, train.y)
    Seq(GbdtParams(numTrees = 20, maxDepth = 3), GbdtParams(numTrees = 5, maxDepth = 2)).foreach { p =>
      val reused = Gbdt.train(shared, edges, train.names, p)
      val fresh = Gbdt.train(new LocalHist(bins, train.y), edges, train.names, p)
      assert(treesOf(reused) == treesOf(fresh), s"params $p")
    }
  }

  test("fitDF (distributed end-to-end) matches local fit quality") {
    val train = TestData.xor(600, seed = 9)
    val test = TestData.xor(300, seed = 10)
    val params = GbdtParams(numTrees = 15, maxBins = 16)
    val local = Gbdt.fit(train, params)
    val dist = Gbdt.fitDF(SparkRows.blocks(train.toDF(spark)), train.names, Binning.fitLocal(train, params.maxBins), params)
    val aucLocal = Metrics.auc(test.y, local.predictProba(test))
    val aucDist = Metrics.auc(test.y, dist.predictProba(test))
    assert(aucDist > 0.85, s"distributed auc=$aucDist")
    assert(math.abs(aucLocal - aucDist) < 0.1, s"local=$aucLocal dist=$aucDist")
  }

  /** Held-out AUC of MLlib's `GBTClassifier` trained with our tree count,
    * depth, learning rate and bin count.
    */
  private def mllibAuc(train: LocalMatrix, test: LocalMatrix, p: GbdtParams): Double = {
    import spark.implicits._
    def frame(m: LocalMatrix) = m.x.toSeq.zip(m.y).map { case (r, y) => (Vectors.dense(r), y) }
      .toDF("features", "label")
    val model = new GBTClassifier().setMaxIter(p.numTrees).setMaxDepth(p.maxDepth)
      .setStepSize(p.eta).setMaxBins(p.maxBins).setSeed(1L).fit(frame(train))
    val scored = model.transform(frame(test)).select("probability", "label").collect()
    Metrics.auc(scored.map(_.getDouble(1)), scored.map(_.getAs[Vector](0)(1)))
  }

  // Tolerances from 11 train/test draws per dataset (this test's and seeds
  // 100-119 / 200-219): |ours - MLlib| was at most 0.001 on xor and 0.052 on
  // planted, where ours averaged 0.010 below MLlib.
  test("held-out AUC is close to MLlib's GBTClassifier at matched settings") {
    val cases = Seq(
      ("xor", TestData.xor(800, seed = 1), TestData.xor(400, seed = 2), GbdtParams(numTrees = 30, maxDepth = 3), 0.01),
      ("planted", TestData.planted(2000, 6, seed = 14), TestData.planted(1000, 6, seed = 15), GbdtParams(), 0.06))
    cases.foreach { case (name, train, test, p, tol) =>
      val ours = Metrics.auc(test.y, Gbdt.fit(train, p).predictProba(test))
      val theirs = mllibAuc(train, test, p)
      info(f"$name: ours $ours%.4f, MLlib $theirs%.4f")
      assert(math.abs(ours - theirs) < tol, s"$name: ours=$ours mllib=$theirs")
    }
  }
}
