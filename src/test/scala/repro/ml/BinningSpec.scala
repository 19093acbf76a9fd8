package repro.ml

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import repro.SparkSpec
import scala.util.Random

class BinningSpec extends SparkSpec {

  /** `quantileEdges` as a full sort defines it: the order statistics of ranks
    * min(n − 1, ⌊q·n / maxBins⌋) of `Arrays.sort`'s order, duplicates and the
    * max dropped. The selection kernel must reproduce it bit for bit.
    */
  private def sortedEdges(values: Array[Double], maxBins: Int): Array[Double] = {
    if (values.isEmpty) return Array.empty
    val sorted = values.clone()
    java.util.Arrays.sort(sorted)
    val n = sorted.length
    val edges = (1 until maxBins).map(q => sorted(math.min(n - 1, (q.toLong * n / maxBins).toInt))).distinct.toArray
    edges.filter(_ < sorted(n - 1))
  }

  /** First index with v <= edges(i), by bisection; edges.length if none. */
  private def bisectBin(v: Double, edges: Array[Double]): Int = {
    var lo = 0
    var hi = edges.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (v <= edges(mid)) hi = mid else lo = mid + 1
    }
    lo
  }

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def check(prop: Prop, tests: Int): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  private val special = Seq(0.0, -0.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)

  /** Columns of every shape the edges must survive: continuous, heavy ties,
    * constant, mixed ±0.0, sprinkled NaN and ±Inf; n from 1 to past maxBins.
    */
  private val column: Gen[Array[Double]] = for {
    n <- Gen.frequency(1 -> Gen.const(1), 3 -> Gen.choose(2, 12), 5 -> Gen.choose(13, 400))
    values <- Gen.oneOf(
      Gen.listOfN(n, Gen.choose(-5.0, 5.0)),
      Gen.listOfN(n, Gen.choose(0, 3).map(_.toDouble)),
      Gen.choose(-3.0, 3.0).map(List.fill(n)(_)),
      Gen.listOfN(n, Gen.oneOf(0.0, -0.0, 2.0, -2.0)),
      Gen.listOfN(n, Gen.frequency(4 -> Gen.choose(-5.0, 5.0), 2 -> Gen.oneOf(0.0, -0.0, 1.0), 1 -> Gen.oneOf(special))))
  } yield values.toArray

  test("quantileEdges equals the sort definition bit for bit at 2, 10, 32 and 127 bins") {
    check(Prop.forAllNoShrink(column, Gen.oneOf(2, 10, 32, 127)) { (values, maxBins) =>
      val input = values.clone()
      val got = Binning.quantileEdges(values, maxBins)
      (bits(got) == bits(sortedEdges(values, maxBins))) :| s"maxBins=$maxBins got=${got.mkString(",")}" &&
        (bits(values) == bits(input)) :| "input must not be permuted"
    }, tests = 2000)
  }

  test("quantileEdges selects the same order statistics as a sort on long columns") {
    val rng = new Random(11)
    val columns = Seq(
      Array.fill(5000)(rng.nextGaussian()),
      Array.tabulate(5000)(_.toDouble),               // sorted
      Array.tabulate(5000)(i => (5000 - i).toDouble), // reversed
      Array.tabulate(5000)(i => (i % 50).toDouble),   // sawtooth: 50 values, 100 ties each
      Array.fill(5000)(rng.nextInt(2).toDouble))      // two values
    for (values <- columns; maxBins <- Seq(2, 10, 32, 127))
      assert(bits(Binning.quantileEdges(values, maxBins)) == bits(sortedEdges(values, maxBins)), s"maxBins=$maxBins")
  }

  test("binOf equals bisection below, at, between and above the edges, and for NaN") {
    val rng = new Random(9)
    for (maxBins <- Seq(2, 3, 10, 32, 127)) {
      val edges = Binning.quantileEdges(Array.fill(4000)(rng.nextGaussian()), maxBins)
      assert(edges.length == maxBins - 1)
      val probes = edges.flatMap(e => Seq(e, Math.nextDown(e), Math.nextUp(e))) ++
        edges.zip(edges.drop(1)).map { case (a, b) => (a + b) / 2 } ++
        Seq(edges.head - 1, edges.last + 1) ++ special
      probes.foreach(v => assert(Binning.binOf(v, edges) == bisectBin(v, edges), s"maxBins=$maxBins v=$v"))
      assert(Binning.binOf(Double.NaN, edges) == edges.length)
    }
    check(Prop.forAllNoShrink(Gen.choose(-4.0, 4.0), Gen.choose(2, 127)) { (v, maxBins) =>
      val edges = Binning.quantileEdges(Array.tabulate(300)(i => math.sin(i * 0.37) * 3), maxBins)
      Binning.binOf(v, edges) == bisectBin(v, edges)
    }, tests = 500)
  }

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
