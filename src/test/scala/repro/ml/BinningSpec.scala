package repro.ml

import repro.SparkSpec
import scala.util.Random

class BinningSpec extends SparkSpec {

  test("quantileEdges of a uniform ramp are evenly spread") {
    val vals = (1 to 100).map(_.toDouble).toArray
    val edges = Binning.quantileEdges(vals, 4)
    assert(edges.length == 3)
    assert(edges.sameElements(edges.sorted))
    // roughly the 25/50/75 percentiles
    assert(edges(0) >= 20 && edges(0) <= 30)
    assert(edges(1) >= 45 && edges(1) <= 55)
    assert(edges(2) >= 70 && edges(2) <= 80)
  }

  test("quantileEdges of a constant column are empty") {
    assert(Binning.quantileEdges(Array.fill(50)(3.14), 8).isEmpty)
  }

  test("quantileEdges never include the column max") {
    val rng = new Random(1)
    val vals = Array.fill(200)(rng.nextGaussian())
    val edges = Binning.quantileEdges(vals, 16)
    assert(edges.forall(_ < vals.max))
  }

  test("quantileEdges are strictly increasing even with heavy duplicates") {
    val vals = Array.fill(100)(1.0) ++ Array.fill(100)(2.0) ++ Array.fill(100)(3.0)
    val edges = Binning.quantileEdges(vals, 10)
    assert(edges.distinct.length == edges.length)
    assert(edges.sameElements(edges.sorted))
  }

  test("binOf respects edge semantics: v <= edge goes left") {
    val edges = Array(1.0, 2.0, 3.0)
    assert(Binning.binOf(0.5, edges) == 0)
    assert(Binning.binOf(1.0, edges) == 0)
    assert(Binning.binOf(1.5, edges) == 1)
    assert(Binning.binOf(2.0, edges) == 1)
    assert(Binning.binOf(3.0, edges) == 2)
    assert(Binning.binOf(9.9, edges) == 3)
  }

  test("binOf with no edges always returns bin 0") {
    assert(Binning.binOf(123.4, Array.empty) == 0)
  }

  test("binOf agrees with a linear scan on random inputs") {
    val rng = new Random(7)
    val edges = Array.fill(15)(rng.nextGaussian()).distinct.sorted
    for (_ <- 0 until 200) {
      val v = rng.nextGaussian() * 2
      val expected = edges.count(_ < v) // since bin = #edges strictly below v when v>edge, ties go left
      val got = Binning.binOf(v, edges)
      // reconcile tie rule: expected computed as count of edges e with e < v;
      // when v equals an edge, binOf returns the index of that edge
      val exact = edges.indexWhere(v <= _) match {
        case -1 => edges.length
        case i  => i
      }
      assert(got == exact, s"v=$v expected=$expected")
    }
  }

  test("equal-frequency bins have roughly equal mass") {
    val rng = new Random(3)
    val vals = Array.fill(1000)(rng.nextGaussian())
    val edges = Binning.quantileEdges(vals, 10)
    val counts = new Array[Int](edges.length + 1)
    vals.foreach(v => counts(Binning.binOf(v, edges)) += 1)
    assert(counts.forall(c => c > 50 && c < 200), counts.mkString(","))
  }

  test("fitLocal + applyLocal produce bins within range") {
    val rng = new Random(5)
    val m = LocalMatrix(Array("a", "b"),
      Array.fill(300)(Array(rng.nextGaussian(), rng.nextInt(3).toDouble)),
      Array.fill(300)(0.0))
    val edges = Binning.fitLocal(m, 8)
    val bins = Binning.applyLocal(m, edges)
    val counts = Binning.binCounts(edges)
    bins.foreach { row =>
      assert((row(0) & 0xff) < counts(0))
      assert((row(1) & 0xff) < counts(1))
    }
    assert(counts(1) <= 3) // only three distinct values
  }

  test("binCounts is edges+1 per column") {
    assert(Binning.binCounts(Array(Array(1.0, 2.0), Array.empty, Array(0.5)))
      .sameElements(Array(3, 1, 2)))
  }
}
