package repro.core

import repro.{SparkSpec, TestData}
import repro.ml.{Binning, SparkRows}
import scala.util.Random

class InfoValueSpec extends SparkSpec {

  test("fromCounts on a perfectly separating binning is large") {
    // bin0 all negative, bin1 all positive
    val iv = InfoValue.fromCounts(Array(0.0, 100.0), Array(100.0, 0.0))
    assert(iv > 0.5, s"iv=$iv") // "extremely strong predictor" per Table I
  }

  test("fromCounts on identical class distributions is ~0") {
    val iv = InfoValue.fromCounts(Array(50.0, 50.0), Array(50.0, 50.0))
    assert(math.abs(iv) < 1e-9)
  }

  test("fromCounts hand-computed two-bin case") {
    // p = (.8+..)/.., use unsmoothed approximations: pos (80,20), neg (20,80)
    val iv = InfoValue.fromCounts(Array(80.0, 20.0), Array(20.0, 80.0))
    // approx (0.8-0.2)*ln(4) * 2 = 1.66; smoothing shifts it slightly
    assert(iv > 1.5 && iv < 1.8, s"iv=$iv")
  }

  test("iv of an informative feature beats iv of noise") {
    val rng = new Random(1)
    val n = 2000
    val informative = new Array[Double](n)
    val noise = new Array[Double](n)
    val y = new Array[Double](n)
    for (i <- 0 until n) {
      y(i) = if (rng.nextBoolean()) 1.0 else 0.0
      informative(i) = y(i) * 2 + rng.nextGaussian()
      noise(i) = rng.nextGaussian()
    }
    assert(InfoValue.iv(informative, y) > 0.3)
    assert(InfoValue.iv(noise, y) < 0.1)
  }

  test("iv handles constant features (single bin, zero IV)") {
    val y = Array.tabulate(100)(i => (i % 2).toDouble)
    assert(math.abs(InfoValue.iv(Array.fill(100)(7.0), y)) < 1e-9)
  }

  test("ivAllLocal computes per-name values") {
    val m = TestData.linear(500, 3, seed = 2)
    val ivs = InfoValue.ivAllLocal(m, Seq("x0", "x2"))
    assert(ivs.keySet == Set("x0", "x2"))
    ivs.values.foreach(v => assert(!v.isNaN))
  }

  test("ivAllSpark agrees with ivAllLocal") {
    val m = TestData.linear(1500, 4, seed = 3)
    val local = InfoValue.ivAllLocal(m, m.names.toSeq)
    val sparkIvs = InfoValue.ivAllSpark(SparkRows.blocks(m.toDF(spark)), m.names.toSeq, Binning.fitLocal(m, 10))
    assert(sparkIvs == local)
  }

  test("ivAllSpark on empty name list returns empty") {
    val m = TestData.linear(50, 2, seed = 4)
    assert(InfoValue.ivAllSpark(SparkRows.blocks(m.toDF(spark).select("label")), Nil, Array.empty).isEmpty)
  }

  test("filter keeps only features above alpha, sorted by IV") {
    val ivs = Map("a" -> 0.5, "b" -> 0.05, "c" -> 0.2)
    assert(InfoValue.filter(ivs, alpha = 0.1) == Seq("a", "c"))
  }

  test("filter falls back to top-k when nothing clears alpha") {
    val ivs = Map("a" -> 0.05, "b" -> 0.02, "c" -> 0.08)
    assert(InfoValue.filter(ivs, alpha = 0.1, fallbackTop = 2) == Seq("c", "a"))
  }

  test("IV is invariant to feature scaling (equal-frequency bins)") {
    val rng = new Random(5)
    val n = 1000
    val v = Array.fill(n)(rng.nextGaussian())
    val y = v.map(x => if (x + rng.nextGaussian() * 0.5 > 0) 1.0 else 0.0)
    val iv1 = InfoValue.iv(v, y)
    val iv2 = InfoValue.iv(v.map(_ * 1000), y)
    assert(math.abs(iv1 - iv2) < 1e-9)
  }

  test("default thresholds match the paper (alpha=0.1, beta=10)") {
    assert(InfoValue.DefaultAlpha == 0.1)
    assert(InfoValue.DefaultBins == 10)
  }
}
