package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

/** One suite per evaluation classifier would be ceremony; each classifier
  * still gets its own learnability, sanity and edge-case tests here.
  */
class ClassifiersSpec extends AnyFunSuite {

  private lazy val linTrain = TestData.linear(700, 5, seed = 20)
  private lazy val linTest = TestData.linear(350, 5, seed = 21)
  private lazy val xorTrain = TestData.xor(700, seed = 22)
  private lazy val xorTest = TestData.xor(350, seed = 23)

  private def auc(scores: Array[Double], test: LocalMatrix): Double =
    Metrics.auc(test.y, scores)

  // ---- CART (DT)

  test("CART learns a linear signal") {
    val m = Cart.fit(linTrain)
    assert(auc(m.predictProba(linTest), linTest) > 0.8)
  }

  test("CART learns XOR (axis-aligned splits suffice)") {
    val m = Cart.fit(xorTrain)
    assert(auc(m.predictProba(xorTest), xorTest) > 0.9)
  }

  test("CART respects maxDepth=1 (a stump cannot solve XOR)") {
    val m = Cart.fit(xorTrain, CartParams(maxDepth = 1))
    assert(auc(m.predictProba(xorTest), xorTest) < 0.65)
  }

  test("CART on pure data returns a single pure leaf") {
    val pure = LocalMatrix(Array("a"), Array.fill(30)(Array(1.0)), Array.fill(30)(1.0))
    val m = Cart.fit(pure)
    assert(m.nodes.length == 1)
    assert(m.nodes(0).weight == 1.0)
  }

  test("CART honours sample weights") {
    // 50/50 labels but weight concentrated on positives → leaf prob near 1
    val x = Array.tabulate(40)(i => Array(i.toDouble))
    val y = Array.tabulate(40)(i => if (i % 2 == 0) 1.0 else 0.0)
    val w = y.map(v => if (v > 0.5) 100.0 else 0.01)
    val m = Cart.fit(LocalMatrix(Array("a"), x, y), CartParams(maxDepth = 0), Some(w))
    assert(m.nodes(0).weight > 0.95)
  }

  // ---- Random Forest / Extra Trees

  test("RandomForest learns XOR and beats a single deep-limited tree") {
    val rf = Forest.fitRandomForest(xorTrain, Forest.ForestParams(numTrees = 20))
    assert(auc(rf.predictProba(xorTest), xorTest) > 0.9)
  }

  test("ExtraTrees learns a linear signal") {
    val et = Forest.fitExtraTrees(linTrain, Forest.ForestParams(numTrees = 20))
    assert(auc(et.predictProba(linTest), linTest) > 0.8)
  }

  test("forest probabilities are averaged (within [0,1])") {
    val rf = Forest.fitRandomForest(linTrain, Forest.ForestParams(numTrees = 5))
    rf.predictProba(linTest).foreach(p => assert(p >= 0 && p <= 1))
  }

  test("forests are deterministic given a seed") {
    val a = Forest.fitRandomForest(linTrain, Forest.ForestParams(numTrees = 5), seed = 42)
    val b = Forest.fitRandomForest(linTrain, Forest.ForestParams(numTrees = 5), seed = 42)
    assert(a.predictProba(linTest).sameElements(b.predictProba(linTest)))
  }

  // ---- AdaBoost

  test("AdaBoost learns a linear signal") {
    val ab = AdaBoost.fit(linTrain)
    assert(auc(ab.predictScore(linTest), linTest) > 0.8)
  }

  test("AdaBoost learns XOR with depth-2 stumps") {
    val ab = AdaBoost.fit(xorTrain)
    assert(auc(ab.predictScore(xorTest), xorTest) > 0.85)
  }

  test("AdaBoost stops early on a perfectly separable dataset") {
    // x0 takes exactly ±1, label = sign: one stump fits perfectly
    val x = Array.tabulate(100)(i => Array(if (i % 2 == 0) 1.0 else -1.0))
    val y = x.map(r => if (r(0) > 0) 1.0 else 0.0)
    val ab = AdaBoost.fit(LocalMatrix(Array("a"), x, y),
      AdaBoost.AdaParams(rounds = 50, stumpDepth = 2))
    assert(ab.stumps.length < 5)
  }

  // ---- Logistic Regression / SVM

  test("LR learns a linear signal well") {
    val lr = Linear.fitLogistic(linTrain)
    assert(auc(lr.predictProba(linTest), linTest) > 0.9)
  }

  test("LR probabilities are in (0,1)") {
    val lr = Linear.fitLogistic(linTrain)
    lr.predictProba(linTest).foreach(p => assert(p > 0 && p < 1))
  }

  test("SVM learns a linear signal well") {
    val svm = Linear.fitSvm(linTrain)
    assert(auc(svm.predictScore(linTest), linTest) > 0.9)
  }

  test("linear models survive constant features (zero variance)") {
    def withConst(m: LocalMatrix) =
      new LocalMatrix(m.names :+ "const", Array.tabulate(m.cols)(m.column) :+ Array.fill(m.rows)(7.0), m.y)
    val lr = Linear.fitLogistic(withConst(linTrain))
    val testConst = withConst(linTest)
    assert(auc(lr.predictProba(testConst), testConst) > 0.85)
  }

  // ---- MLP

  test("MLP learns a linear signal") {
    val mlp = Mlp.fit(linTrain, Mlp.MlpParams(epochs = 30))
    assert(auc(mlp.predictProba(linTest), linTest) > 0.85)
  }

  test("MLP learns XOR (nonlinear)") {
    val mlp = Mlp.fit(xorTrain, Mlp.MlpParams(hidden = 16, epochs = 80))
    assert(auc(mlp.predictProba(xorTest), xorTest) > 0.8)
  }

  test("MLP is deterministic given a seed") {
    val a = Mlp.fit(linTrain, Mlp.MlpParams(epochs = 5, seed = 9))
    val b = Mlp.fit(linTrain, Mlp.MlpParams(epochs = 5, seed = 9))
    assert(a.predictProba(linTest).sameElements(b.predictProba(linTest)))
  }

  // ---- kNN

  test("kNN learns a linear signal") {
    val knn = Knn.fit(linTrain)
    assert(auc(knn.predictProba(linTest), linTest) > 0.8)
  }

  test("kNN learns XOR") {
    val knn = Knn.fit(xorTrain)
    assert(auc(knn.predictProba(xorTest), xorTest) > 0.85)
  }

  test("kNN caps the reference set") {
    val knn = Knn.fit(linTrain, Knn.KnnParams(maxRef = 100))
    assert(knn.refX.length == 100)
  }

  test("kNN with k=1 memorizes the training set") {
    val knn = Knn.fit(linTrain, Knn.KnnParams(k = 1))
    val preds = knn.predictProba(linTrain)
    val acc = Metrics.accuracy(linTrain.y, preds)
    assert(acc > 0.99, s"acc=$acc")
  }

  // ---- Scaler

  test("scaler normalizes to zero mean / unit variance") {
    val s = Scaler.fit(linTrain.x)
    val z = s.transform(linTrain.x)
    val m = linTrain.cols
    for (j <- 0 until m) {
      val col = z.map(_(j))
      val mean = col.sum / col.length
      val varr = col.map(v => (v - mean) * (v - mean)).sum / col.length
      assert(math.abs(mean) < 1e-9)
      assert(math.abs(varr - 1.0) < 1e-6)
    }
  }

  test("scaler guards constant columns against divide-by-zero") {
    val s = Scaler.fit(Array(Array(3.0), Array(3.0)))
    val z = s.transform(Array(Array(3.0)))
    assert(z(0)(0) == 0.0)
  }
}
