package repro.core

import repro.ml.{Binning, GbdtModel, LocalMatrix, Metrics, Pool, TreePath}

/** Feature-combination mining from GBDT paths (§IV-B1) and the
  * information-gain-ratio sort of Algorithm 2.
  */
object PathMining {

  /** A candidate combination: feature names with the per-feature split
    * values collected from the tree paths it appeared on.
    */
  final case class Combo(features: Seq[String], splitValues: Map[String, Array[Double]]) {
    def key: Seq[String] = features.sorted
  }

  final case class ScoredCombo(combo: Combo, gainRatio: Double)

  /** Enumerate combinations from the model's root→leaf-parent paths: all
    * singletons (arity-1 operators) and all unordered pairs (arity-2) of
    * distinct split features co-occurring on a path. Combinations appearing
    * on several paths are merged, uniting their split-value sets.
    */
  def combosFromPaths(paths: Array[TreePath], names: Array[String],
                      includeSingles: Boolean, includePairs: Boolean): Seq[Combo] = {
    val merged = scala.collection.mutable.LinkedHashMap.empty[Seq[String], scala.collection.mutable.Map[String, Array[Double]]]
    def add(feats: Seq[Int], p: TreePath): Unit = {
      val featNames = feats.map(names(_))
      val entry = merged.getOrElseUpdate(featNames.sorted,
        scala.collection.mutable.Map.empty[String, Array[Double]])
      feats.foreach { f =>
        val nm = names(f)
        val vs = p.splitValues.getOrElse(f, Array.empty)
        entry(nm) = (entry.getOrElse(nm, Array.empty[Double]) ++ vs).distinct.sorted
      }
    }
    paths.foreach { p =>
      val fs = p.features
      if (includeSingles) fs.foreach(f => add(Seq(f), p))
      if (includePairs) {
        var i = 0
        while (i < fs.length) {
          var j = i + 1
          while (j < fs.length) { add(Seq(fs(i), fs(j)), p); j += 1 }
          i += 1
        }
      }
    }
    merged.map { case (k, vals) => Combo(k, vals.toMap) }.toSeq
  }

  /** Information gain ratio of one combination (Algorithm 2): the split
    * features and their split values partition the records into
    * ∏(|V_i|+1) cells; gain ratio = (H(y) − H(y|cells)) / H(cells)
    * (C4.5's gain-over-split-info), 0 when the partition is degenerate.
    */
  def gainRatio(m: LocalMatrix, combo: Combo): Double = {
    val featCols = combo.features.map(m.column).toArray
    val edges = combo.features.map(f => combo.splitValues.getOrElse(f, Array.empty[Double])).toArray
    val strides = new Array[Int](featCols.length)
    var stride = 1
    var q = 0
    while (q < featCols.length) { strides(q) = stride; stride *= edges(q).length + 1; q += 1 }
    val nCells = stride
    if (nCells <= 1) return 0.0
    val (pos, neg) = Binning.classCounts(m.y, nCells) { i =>
      var cell = 0
      var qq = 0
      while (qq < featCols.length) {
        cell += strides(qq) * Binning.binOf(featCols(qq)(i), edges(qq))
        qq += 1
      }
      cell
    }
    val splitInfo = Metrics.entropy(Array.tabulate(nCells)(c => pos(c) + neg(c)))
    if (splitInfo < 1e-12) 0.0 else Metrics.infoGain(pos, neg) / splitInfo
  }

  /** Algorithm 2 end-to-end: mine combinations from the model, score on a
    * (possibly sampled) matrix, return the top-γ by gain ratio. Each
    * combination is scored on its own, on `Pool`.
    */
  def topCombos(model: GbdtModel, scoring: LocalMatrix, gamma: Int,
                includeSingles: Boolean, includePairs: Boolean): Seq[ScoredCombo] = {
    val combos = combosFromPaths(model.paths, model.names, includeSingles, includePairs).toArray
    Pool.tabulate(combos.length)(k => ScoredCombo(combos(k), gainRatio(scoring, combos(k))))
      .toSeq
      .sortBy(sc => (-sc.gainRatio, sc.combo.key.mkString("|")))
      .take(math.max(0, gamma))
  }
}
