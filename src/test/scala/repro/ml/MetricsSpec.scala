package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MetricsSpec extends AnyFunSuite {

  test("auc is 1.0 for perfectly separated scores") {
    val y = Array(0.0, 0.0, 1.0, 1.0)
    val s = Array(0.1, 0.2, 0.8, 0.9)
    assert(Metrics.auc(y, s) == 1.0)
  }

  test("auc is 0.0 for perfectly inverted scores") {
    val y = Array(0.0, 0.0, 1.0, 1.0)
    val s = Array(0.9, 0.8, 0.2, 0.1)
    assert(Metrics.auc(y, s) == 0.0)
  }

  test("auc is 0.5 for constant scores (all tied)") {
    val y = Array(0.0, 1.0, 0.0, 1.0)
    val s = Array(0.5, 0.5, 0.5, 0.5)
    assert(math.abs(Metrics.auc(y, s) - 0.5) < 1e-12)
  }

  test("auc handles partial ties with midranks") {
    // pos scores {0.5, 0.9}, neg {0.1, 0.5}: pairs => (0.5>0.1)=1, (0.5,0.5)=.5,
    // (0.9>0.1)=1, (0.9>0.5)=1 => 3.5/4
    val y = Array(1.0, 1.0, 0.0, 0.0)
    val s = Array(0.5, 0.9, 0.1, 0.5)
    assert(math.abs(Metrics.auc(y, s) - 0.875) < 1e-12)
  }

  test("auc returns 0.5 when one class is absent") {
    assert(Metrics.auc(Array(1.0, 1.0), Array(0.3, 0.7)) == 0.5)
    assert(Metrics.auc(Array(0.0, 0.0), Array(0.3, 0.7)) == 0.5)
  }

  test("auc known mixed case") {
    val y = Array(1.0, 0.0, 1.0, 0.0, 1.0)
    val s = Array(0.9, 0.8, 0.7, 0.6, 0.1)
    // pos {0.9,0.7,0.1} vs neg {0.8,0.6}: wins = (0.9>0.8)+(0.9>0.6)+(0.7>0.6) = 3 of 6
    assert(math.abs(Metrics.auc(y, s) - 0.5) < 1e-12)
  }

  test("auc is invariant under strictly monotone score transforms") {
    for (seed <- 0 until 25) {
      val rng = new Random(seed)
      val s = Array.fill(20)(rng.nextDouble() * 10 - 5)
      val y = Array.fill(20)(if (rng.nextBoolean()) 1.0 else 0.0)
      val a1 = Metrics.auc(y, s)
      val a2 = Metrics.auc(y, s.map(v => math.exp(v / 2)))
      assert(math.abs(a1 - a2) < 1e-9, s"seed=$seed")
    }
  }

  test("accuracy on a known case") {
    val y = Array(1.0, 0.0, 1.0, 0.0)
    val s = Array(0.9, 0.2, 0.4, 0.7)
    assert(Metrics.accuracy(y, s) == 0.5)
  }

  test("entropy of a uniform 2-bin histogram is ln 2") {
    assert(math.abs(Metrics.entropy(Array(5.0, 5.0)) - math.log(2)) < 1e-12)
  }

  test("entropy of a degenerate histogram is 0") {
    assert(Metrics.entropy(Array(10.0, 0.0)) == 0.0)
    assert(Metrics.entropy(Array(0.0, 0.0)) == 0.0)
  }

  test("binaryEntropy is symmetric") {
    assert(Metrics.binaryEntropy(3, 7) == Metrics.binaryEntropy(7, 3))
  }

  test("jsd is symmetric and zero on identical inputs") {
    val p = Array(0.1, 0.4, 0.5)
    val q = Array(0.3, 0.3, 0.4)
    assert(math.abs(Metrics.jsd(p, q) - Metrics.jsd(q, p)) < 1e-12)
    assert(math.abs(Metrics.jsd(p, p)) < 1e-12)
  }

  test("jsd handles zeros and is bounded by ln 2") {
    val p = Array(1.0, 0.0)
    val q = Array(0.0, 1.0)
    val v = Metrics.jsd(p, q)
    assert(v > 0 && v <= math.log(2) + 1e-12)
  }

  test("jsd bounded on random distributions") {
    for (seed <- 0 until 25) {
      val rng = new Random(seed)
      val raw = Array.fill(8)(rng.nextDouble())
      val p = raw.map(_ / raw.sum)
      val q = Array.fill(8)(1.0 / 8)
      val v = Metrics.jsd(p, q)
      assert(v >= -1e-12 && v <= math.log(2) + 1e-9, s"seed=$seed")
    }
  }

  test("sigmoid at 0 is 0.5 and respects symmetry") {
    assert(Metrics.sigmoid(0.0) == 0.5)
    assert(math.abs(Metrics.sigmoid(2.0) + Metrics.sigmoid(-2.0) - 1.0) < 1e-12)
  }

  test("sigmoid does not overflow at extremes") {
    assert(Metrics.sigmoid(1000) == 1.0)
    assert(Metrics.sigmoid(-1000) == 0.0)
  }
}
