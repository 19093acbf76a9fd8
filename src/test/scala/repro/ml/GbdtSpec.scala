package repro.ml

import scala.jdk.CollectionConverters._
import org.apache.spark.SparkEnv
import org.apache.spark.ml.classification.GBTClassifier
import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions.col
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
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

/** A `LocalHist` that records, per `histograms` call, how many features and
  * bins were asked for, and which tree, partial tree and nodes.
  */
private final class RecordingHist(bins: Array[Array[Byte]], labels: Array[Double]) extends HistBackend {
  private val inner = new LocalHist(bins, labels)
  val calls = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)] // (features, bins)
  val asked = scala.collection.mutable.ArrayBuffer.empty[(Int, Array[Node], Array[Int])] // (tree, partial, pending)

  override def numRows: Long = inner.numRows

  override def histograms(
      prevTrees: Array[Array[Node]],
      partial: Array[Node],
      pending: Array[Int],
      offsets: Array[Int],
      totalBins: Int): (Array[Array[Double]], Array[Array[Double]]) = {
    calls += ((offsets.length, totalBins))
    asked += ((prevTrees.length, partial, pending.clone()))
    inner.histograms(prevTrees, partial, pending, offsets, totalBins)
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
    val p = model.predictProba(m).head
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

  test("predictProba bins each row with the model's training edges") {
    val model = Gbdt.fit(xorTrain, GbdtParams(numTrees = 2, maxBins = 8))
    val m = LocalMatrix(xorTrain.names, Array(Array(-100.0, 0.0, 100.0)), Array(0.0))
    val bins = Binning.applyLocal(m, model.edges).head
    assert((bins(0) & 0xff) == 0)
    assert((bins(2) & 0xff) == model.edges(2).length) // top bin
    assert(model.predictProba(m).head == Metrics.sigmoid(TreeOps.margin(model.trees, bins)))
  }

  private def treesOf(m: GbdtModel): Seq[Seq[Node]] = m.trees.map(_.toSeq).toSeq

  test("SparkHist backend produces node-identical trees to LocalHist on shared bins") {
    val train = TestData.planted(400, 4, seed = 8)
    val params = GbdtParams(numTrees = 5, maxDepth = 3, maxBins = 16)
    val edges = Binning.fitLocal(train, params.maxBins)
    val bins = Binning.applyLocal(train, edges)
    val local = treesOf(Gbdt.train(new LocalHist(bins, train.y), edges, train.names, params))
    assert(local.map(_.length).sum > 5 * 3, "trees should split")
    Seq(4, 13).foreach { parts =>
      val rdd = spark.sparkContext.parallelize(bins.zip(train.y).toIndexedSeq, parts)
      assert(treesOf(Gbdt.train(new SparkHist(rdd), edges, train.names, params)) == local, s"$parts partitions")
    }
  }

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

  test("maxDepth full passes per tree; deepest leaves from the parent's scan") {
    val train = TestData.planted(700, 5, seed = 12)
    val params = GbdtParams()
    val edges = Binning.fitLocal(train, params.maxBins)
    val bins = Binning.applyLocal(train, edges)
    val counts = Binning.binCounts(edges)
    val rec = new RecordingHist(bins, train.y)
    val model = Gbdt.train(rec, edges, train.names, params)
    // 20 trees x 3 levels, each pass over every feature
    assert(rec.calls == Seq.fill(params.numTrees * params.maxDepth)((counts.length, counts.sum)))
    val floor = math.pow(2, -30)
    model.trees.indices.foreach { t =>
      val tree = model.trees(t)
      val depth = new Array[Int](tree.length)
      tree.indices.foreach { i =>
        if (tree(i).feature >= 0) { depth(tree(i).left) = depth(i) + 1; depth(tree(i).right) = depth(i) + 1 }
      }
      assert(depth.max == params.maxDepth, s"tree $t should reach max depth")
      // (G, H) of each leaf, summed row by row in row order
      val g = new Array[Double](tree.length)
      val h = new Array[Double](tree.length)
      bins.indices.foreach { r =>
        var i = 0
        while (tree(i).feature >= 0) i = if ((bins(r)(tree(i).feature) & 0xff) <= tree(i).binThr) tree(i).left else tree(i).right
        val p = Metrics.sigmoid(TreeOps.margin(model.trees.take(t), bins(r)))
        g(i) += HistBackend.exact(p - train.y(r))
        h(i) += math.max(HistBackend.exact(p * (1.0 - p)), floor)
      }
      tree.indices.filter(depth(_) == params.maxDepth).foreach { i =>
        assert(tree(i).feature == Node.Leaf)
        assert(tree(i).weight == -params.eta * g(i) / (h(i) + params.lambda), s"tree $t node $i")
        assert(tree(i).cover == h(i), s"tree $t node $i")
      }
    }
  }

  test("below the root each pass builds one child per split, the smaller") {
    val train = TestData.planted(700, 5, seed = 12)
    val params = GbdtParams(maxDepth = 4)
    val edges = Binning.fitLocal(train, params.maxBins)
    val rec = new RecordingHist(Binning.applyLocal(train, edges), train.y)
    val model = Gbdt.train(rec, edges, train.names, params)
    assert(model.trees.map(_.length).sum > params.numTrees * 7, "trees should split below depth 1")
    val below = rec.asked.filter(_._2.length > 1)
    assert(below.nonEmpty)
    rec.asked.filter(_._2.length == 1).foreach { case (_, _, pending) => assert(pending.toSeq == Seq(0)) }
    below.foreach { case (t, partial, pending) =>
      // the splits made at the level above are the nodes whose children are still Pending
      val splits = partial.filter(n => n.feature >= 0 && partial(n.left).feature == Node.Pending)
      assert(splits.nonEmpty, s"tree $t")
      assert(pending.forall(i => splits.exists(n => n.left == i || n.right == i)), s"tree $t asks ${pending.toSeq}")
      splits.foreach { n =>
        assert(pending.count(i => i == n.left || i == n.right) == 1, s"tree $t asks ${pending.toSeq}")
        val (built, derived) = if (pending.contains(n.left)) (n.left, n.right) else (n.right, n.left)
        // a child's cover in the finished tree is its own H
        assert(model.trees(t)(built).cover <= model.trees(t)(derived).cover, s"tree $t node $built")
      }
    }
  }

  test("parent minus one child's LocalHist histogram is the other child's") {
    val shapes = for {
      rows <- Gen.choose(1, 2000)
      binCounts <- Gen.choose(1, 6).flatMap(Gen.listOfN(_, Gen.choose(2, 32)))
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (rows, binCounts.toArray, seed)
    val prop = Prop.forAllNoShrink(shapes) { case (n, binCounts, seed) =>
      val rng = new scala.util.Random(seed)
      val bins = Array.fill(n)(binCounts.map(c => rng.nextInt(c).toByte))
      val hist = new LocalHist(bins, Array.fill(n)(rng.nextInt(2).toDouble))
      def oneSplit(child: => Node): Array[Node] = {
        val f = rng.nextInt(binCounts.length)
        Array(Node(f, rng.nextInt(binCounts(f)), 1, 2, 0.0, 1.0, 1.0), child, child)
      }
      // earlier trees give the rows up to 2^4 margins
      val prev = Array.fill(rng.nextInt(5))(oneSplit(Node.leaf(2 * rng.nextGaussian(), 1.0)))
      val split = oneSplit(Node.pending)
      val offsets = binCounts.scanLeft(0)(_ + _).init
      def of(partial: Array[Node], node: Int): Seq[Seq[Double]] = {
        val (g, h) = hist.histograms(prev, partial, Array(node), offsets, binCounts.sum)
        Seq(g(0).toSeq, h(0).toSeq)
      }
      val parent = of(Array(Node.pending), 0)
      val (left, right) = (of(split, 1), of(split, 2))
      def minus(a: Seq[Seq[Double]], b: Seq[Seq[Double]]) = a.zip(b).map { case (x, y) => x.zip(y).map(c => c._1 - c._2) }
      minus(parent, left) == right && minus(parent, right) == left
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("LocalHist's row-range histograms equal one chain over the rows at N = 1, 3 and 4 097") {
    val rng = new scala.util.Random(41)
    val binCounts = Array(2, 7, 32, 5)
    val offsets = binCounts.scanLeft(0)(_ + _).init
    def tree(child: => Node): Array[Node] = {
      val f = rng.nextInt(binCounts.length)
      Array(Node(f, rng.nextInt(binCounts(f)), 1, 2, 0.0, 1.0, 1.0), child, child)
    }
    Seq(1, 3, 4097).foreach { n =>
      val bins = Array.fill(n)(binCounts.map(c => rng.nextInt(c).toByte))
      val labels = Array.fill(n)(rng.nextInt(2).toDouble)
      val ranged = new LocalHist(bins, labels)
      val chain = new RescoringHist(bins, labels)
      val trees = Array.fill(6)(tree(Node.leaf(rng.nextGaussian(), 1.0)))
      val other = Array.fill(2)(tree(Node.leaf(rng.nextGaussian(), 1.0)))
      val split = tree(Node.pending)
      // growing prefixes fold in the new trees only; `other` is no prefix, so margins restart
      Seq(0, 1, 4, 6).map(trees.take) :+ other foreach { prev =>
        Seq((Array(Node.pending), Array(0)), (split, Array(1, 2)), (split, Array(2))).foreach { case (partial, pending) =>
          def of(b: HistBackend) = {
            val (g, h) = b.histograms(prev, partial, pending, offsets, binCounts.sum)
            (g.map(_.toSeq).toSeq, h.map(_.toSeq).toSeq)
          }
          assert(of(ranged) == of(chain), s"N = $n, ${prev.length} trees, pending ${pending.mkString(",")}")
        }
      }
    }
  }

  test("Gbdt.train rejects 2^23 rows before asking for a histogram") {
    var calls = 0
    val huge = new HistBackend {
      def numRows: Long = 1L << 23
      def histograms(prevTrees: Array[Array[Node]], partial: Array[Node], pending: Array[Int],
                     offsets: Array[Int], totalBins: Int): (Array[Array[Double]], Array[Array[Double]]) = {
        calls += 1
        (Array.empty, Array.empty)
      }
    }
    val e = intercept[IllegalArgumentException](Gbdt.train(huge, Array(Array(0.0)), Array("a"), GbdtParams()))
    assert(e.getMessage.contains("2^23"), e.getMessage)
    assert(calls == 0)
  }

  test("quantized gradients sum to one double in any order and grouping") {
    val terms = Gen.choose(1, 3000).flatMap(n => Gen.listOfN(n, Gen.choose(-1.0, 1.0)))
    val prop = Prop.forAllNoShrink(terms, Gen.choose(0L, Long.MaxValue)) { (raw, seed) =>
      val q = raw.map(HistBackend.exact).toArray
      val exactSum = q.foldLeft(java.math.BigDecimal.ZERO)((a, v) => a.add(new java.math.BigDecimal(v)))
      val rng = new scala.util.Random(seed)
      val sums = Seq.fill(5) {
        val shuffled = rng.shuffle(q.toSeq)
        val cuts = (0 +: Seq.fill(rng.nextInt(8))(rng.nextInt(q.length + 1)) :+ q.length).sorted
        val parts = cuts.zip(cuts.tail).map { case (a, b) => shuffled.slice(a, b).foldLeft(0.0)(_ + _) }
        rng.shuffle(parts).foldLeft(0.0)(_ + _)
      } :+ q.foldLeft(0.0)(_ + _)
      sums.forall(s => new java.math.BigDecimal(s).compareTo(exactSum) == 0)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("Gbdt.fit on Spark blocks grows the local trees") {
    val train = TestData.xor(8000, seed = 9)
    val test = TestData.xor(300, seed = 10)
    val params = GbdtParams(numTrees = 15, maxBins = 16)
    val df = train.toDF(spark)
    assert(df.rdd.getNumPartitions >= 8)
    val local = Gbdt.fit(train, params)
    val dist = Gbdt.fit(Rows.Blocks(SparkRows.blocks(df)), train.names, Binning.fitLocal(train, params.maxBins), params)
    assert(treesOf(dist) == treesOf(local))
    val aucDist = Metrics.auc(test.y, dist.predictProba(test))
    assert(aucDist > 0.85, s"distributed auc=$aucDist")
  }

  test("a Spark fit starts one count and one single-stage job per histogram pass") {
    val train = TestData.planted(8000, 4, seed = 16)
    val params = GbdtParams(numTrees = 4, maxBins = 16)
    val df = train.toDF(spark)
    assert(df.rdd.getNumPartitions >= 8, "treeAggregate would add a merge stage here")
    val edges = Binning.fitLocal(train, params.maxBins)
    val recording = new RecordingHist(Binning.applyLocal(train, edges), train.y)
    val local = Gbdt.train(recording, edges, train.names, params)
    val stages = new java.util.concurrent.ConcurrentHashMap[Int, Int] // the fit's jobs: id -> stages
    val markerDone = new java.util.concurrent.CountDownLatch(1)
    val key = "repro.test.jobs"
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(key))) match {
          case Some("fit") => stages.put(e.jobId, e.stageInfos.length)
          case Some("marker") => markerDone.countDown()
          case _ =>
        }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(key, "fit")
      val dist = Gbdt.fit(Rows.Blocks(SparkRows.blocks(df)), train.names, edges, params)
      // the bus delivers events in order, so the marker's start comes after every fit job's
      sc.setLocalProperty(key, "marker")
      sc.parallelize(Seq(1), 1).count()
      assert(markerDone.await(30, java.util.concurrent.TimeUnit.SECONDS), "listener did not see the marker job")
      assert(treesOf(dist) == treesOf(local))
      assert(stages.size == recording.calls.length + 1, s"${stages.size} jobs for ${recording.calls.length} passes")
      assert(stages.values.asScala.forall(_ == 1), s"stages per job: $stages")
    } finally {
      sc.setLocalProperty(key, null)
      sc.removeSparkListener(listener)
    }
  }

  test("a Spark pass ships no frame lineage, however long the frame's plan") {
    val train = TestData.planted(4000, 44, seed = 17)
    val params = GbdtParams(numTrees = 3)
    val edges = Binning.fitLocal(train, params.maxBins)
    val local = treesOf(Gbdt.train(new LocalHist(Binning.applyLocal(train, edges), train.y), edges, train.names, params))
    val plain = train.toDF(spark)
    // the same rows behind 30 projections: x * 1.0 is x bit for bit
    val long = (0 until 30).foldLeft(plain)((df, i) => df.withColumn(s"x${i % 4}", col(s"x${i % 4}") * 1.0))
    val serializer = SparkEnv.get.closureSerializer.newInstance()
    Seq("plain" -> plain, "30 projections" -> long).foreach { case (name, df) =>
      val rows = SparkHist.passInput(SparkRows.blocks(df), edges)
      try {
        assert(treesOf(Gbdt.train(new SparkHist(rows), edges, train.names, params)) == local, name)
        // what every pass task deserializes besides its own closure
        val bytes = serializer.serialize(rows).limit()
        info(s"$name: $bytes bytes")
        assert(bytes < 16 * 1024, s"$name: the pass input serializes to $bytes bytes")
      } finally rows.unpersist(blocking = false)
    }
  }

  test("Spark fits leave the persisted RDDs as they found them and repeat their trees") {
    val train = TestData.planted(3000, 6, seed = 18)
    val params = GbdtParams(numTrees = 4, maxBins = 16)
    val edges = Binning.fitLocal(train, params.maxBins)
    val df = train.toDF(spark).cache()
    df.count()
    val sc = spark.sparkContext
    try {
      val before = sc.getPersistentRDDs.keySet
      val fits = Seq.fill(2) {
        val trees = treesOf(Gbdt.fit(Rows.Blocks(SparkRows.blocks(df)), train.names, edges, params))
        assert(sc.getPersistentRDDs.keySet == before)
        trees
      }
      assert(fits(0) == fits(1))
      assert(fits(0) == treesOf(Gbdt.fit(train, params)))
    } finally df.unpersist()
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
