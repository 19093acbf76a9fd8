package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.PathMining.Combo
import repro.core.baselines.{FcTree, Tfc}

/** Exact outputs on one fixed dataset. A refactor of the binning, counting or
  * entropy code must leave every plan and score here bit-for-bit unchanged;
  * scores are compared with `==`, not a tolerance.
  */
class PinnedResultsSpec extends AnyFunSuite {

  private lazy val m = TestData.planted(600, 6, seed = 2024)
  private lazy val prod = m.column(0).zip(m.column(1)).map { case (a, b) => a * b }

  private def assertPlan(p: FeaturePlan, generated: Seq[String], keep: Seq[String]): Unit = {
    assert(p.generated.map(_.name) == generated)
    assert(p.keep == keep)
  }

  test("Tfc.fit plan is pinned") {
    assertPlan(Tfc.fit(m),
      Seq("mul__x0__x1", "div__x0__x1", "vid__x0__x1", "sub__x0__x1", "add__x0__x1", "sub__x1__x2",
        "sub__x2__x3", "add__x2__x5", "sub__x0__x2", "add__x0__x2", "div__x4__x5"),
      Seq("mul__x0__x1", "div__x0__x1", "vid__x0__x1", "sub__x0__x1", "add__x0__x1", "x2", "sub__x1__x2",
        "sub__x2__x3", "add__x2__x5", "sub__x0__x2", "add__x0__x2", "div__x4__x5"))
  }

  test("FcTree.fit plan is pinned") {
    assertPlan(FcTree.fit(m),
      Seq("sub__x0__x4", "div__x0__x1", "mul__x0__x1", "vid__x3__x5", "div__x0__x3", "sub__x3__x4"),
      Seq("x0", "x1", "x2", "x3", "x4", "x5",
        "sub__x0__x4", "div__x0__x1", "mul__x0__x1", "vid__x3__x5", "div__x0__x3", "sub__x3__x4"))
  }

  test("Safe.fitLocal plan is pinned") {
    val pairs = Seq("x0__x1", "x1__x2", "x0__x2", "x2__x3", "x2__x5", "x0__x3")
    assertPlan(Safe.fitLocal(m).plan,
      for (p <- pairs; op <- Seq("add", "sub", "mul", "div", "vid")) yield s"${op}__$p",
      Seq("mul__x0__x1", "sub__x2__x5", "x2", "add__x0__x2", "add__x2__x5", "sub__x2__x3",
        "sub__x0__x1", "vid__x0__x1", "x3", "div__x0__x1", "sub__x1__x2", "add__x2__x3"))
  }

  test("InfoValue.iv values are pinned") {
    assert(InfoValue.iv(m.column(0), m.y) == 0.0345231460748815)
    assert(InfoValue.iv(m.column(2), m.y) == 0.28141084711472303)
    assert(InfoValue.iv(m.column(5), m.y) == 0.076186012154173)
    assert(InfoValue.iv(prod, m.y) == 2.3399086461980936)
  }

  test("Tfc.infoGain values are pinned") {
    assert(Tfc.infoGain(m.column(0), m.y, 10) == 0.004432398199282428)
    assert(Tfc.infoGain(m.column(2), m.y, 10) == 0.035603601162996434)
    assert(Tfc.infoGain(m.column(5), m.y, 10) == 0.009764242928087752)
    assert(Tfc.infoGain(prod, m.y, 10) == 0.21535824374404433)
  }

  test("PathMining.gainRatio values are pinned") {
    assert(PathMining.gainRatio(m, Combo(Seq("x0", "x1"), Map("x0" -> Array(-0.5, 0.3), "x1" -> Array(0.1))))
      == 0.07657369915282229)
    assert(PathMining.gainRatio(m, Combo(Seq("x2"), Map("x2" -> Array(0.0, 1.0)))) == 0.023359767031534782)
    assert(PathMining.gainRatio(m, Combo(Seq("x3", "x4"), Map("x3" -> Array(0.2), "x4" -> Array(-1.0, 0.0, 1.0))))
      == 0.004288217667590107)
  }

  test("FcTree.gainOf values are pinned") {
    assert(FcTree.gainOf(m.y, prod, m.y.indices.toArray, 10) == 0.12476816918680034)
    assert(FcTree.gainOf(m.y, m.column(2), (0 until 300).toArray, 10) == 0.029297272718710854)
  }
}
