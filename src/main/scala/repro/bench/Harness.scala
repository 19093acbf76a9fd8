package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.baselines.{FcTree, Tfc}
import repro.data.SynthClass.Dataset
import repro.ml._

/** Experiment-grid runner behind Tables III, V and VIII: fits each feature
  * engineering method, applies Ψ, trains the evaluation classifiers and
  * reports AUC — the Scala stand-in for the paper's sklearn/XGBoost grid.
  */
object Harness {

  val MethodNames: Seq[String] = Seq("ORIG", "FCT", "TFC", "RAND", "IMP", "SAFE")

  /** Fit one FE method on the training matrix; returns (Ψ, seconds). */
  def runFE(method: String, train: LocalMatrix, seed: Long,
            cfg: SafeConfig = SafeConfig()): (FeaturePlan, Double) = {
    val t0 = System.nanoTime()
    val plan = method match {
      case "ORIG" => FeaturePlan(Nil, train.names.toSeq)
      case "FCT"  => FcTree.fit(train, FcTree.FcTreeConfig(ops = cfg.binaryOps, seed = seed))
      case "TFC"  => Tfc.fit(train, Tfc.TfcConfig(ops = cfg.binaryOps))
      case "RAND" => Safe.fitLocal(train, cfg.copy(seed = seed), RandomCombos).plan
      case "IMP"  => Safe.fitLocal(train, cfg.copy(seed = seed), ImportantCombos).plan
      case "SAFE" => Safe.fitLocal(train, cfg.copy(seed = seed)).plan
      case other  => throw new IllegalArgumentException(s"unknown method $other")
    }
    (plan, (System.nanoTime() - t0) / 1e9)
  }

  /** The nine evaluation classifiers of Table III. Each returns test scores
    * monotone in P(y=1).
    */
  val classifiers: Seq[(String, (LocalMatrix, LocalMatrix, Long) => Array[Double])] = Seq(
    "AB" -> ((tr, te, seed) => AdaBoost.fit(tr, AdaBoost.AdaParams(), seed).predictScore(te)),
    "DT" -> ((tr, te, seed) => Cart.fit(tr, CartParams(), None, seed).predictProba(te)),
    "ET" -> ((tr, te, seed) => Forest.fitExtraTrees(tr, Forest.ForestParams(), seed).predictProba(te)),
    "kNN" -> ((tr, te, seed) => Knn.fit(tr, Knn.KnnParams(seed = seed)).predictProba(te)),
    "LR" -> ((tr, te, _) => Linear.fitLogistic(tr).predictProba(te)),
    "MLP" -> ((tr, te, seed) => Mlp.fit(tr, Mlp.MlpParams(seed = seed)).predictProba(te)),
    "RF" -> ((tr, te, seed) => Forest.fitRandomForest(tr, Forest.ForestParams(), seed).predictProba(te)),
    "SVM" -> ((tr, te, _) => Linear.fitSvm(tr).predictScore(te)),
    "XGB" -> ((tr, te, _) => { val mdl = Gbdt.fit(tr); mdl.predictProba(te) }),
  )

  def classifier(name: String): (LocalMatrix, LocalMatrix, Long) => Array[Double] =
    classifiers.find(_._1 == name).map(_._2)
      .getOrElse(throw new IllegalArgumentException(s"unknown classifier $name"))

  /** Apply Ψ and score every requested classifier: Map(clf → 100xAUC). */
  def evaluate(plan: FeaturePlan, train: LocalMatrix, test: LocalMatrix,
               clfNames: Seq[String], seed: Long): Map[String, Double] = {
    val trNew = plan.applyLocal(train)
    val teNew = plan.applyLocal(test)
    clfNames.map { c =>
      val scores = classifier(c)(trNew, teNew, seed)
      c -> 100.0 * Metrics.auc(teNew.y, scores)
    }.toMap
  }

  /** Full Table-III cell block for one dataset: method → clf → mean AUC over
    * `repeats` re-generations of the data (the paper's n-times averaging).
    */
  def runDataset(ds: String, methods: Seq[String], clfNames: Seq[String],
                 repeats: Int, cfg: SafeConfig = SafeConfig())
      : Map[String, Map[String, Double]] = {
    val acc = scala.collection.mutable.Map.empty[(String, String), Double]
    for (r <- 0 until repeats) {
      val d: Dataset = repro.data.SynthClass.generateByName(ds, r)
      for (m <- methods) {
        val (plan, _) = runFE(m, d.train, seed = r * 1000 + m.hashCode.abs % 997, cfg)
        val scores = evaluate(plan, d.train, d.test, clfNames, seed = r)
        scores.foreach { case (c, v) => acc((m, c)) = acc.getOrElse((m, c), 0.0) + v }
      }
    }
    methods.map(m => m -> clfNames.map(c => c -> acc((m, c)) / repeats).toMap).toMap
  }

  /** Fixed-width table printing used by all bench suites. */
  def fmtRow(cells: Seq[String], widths: Seq[Int]): String =
    cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString(" | ")

  def printTable(header: Seq[String], rows: Seq[Seq[String]], sink: String => Unit): Unit = {
    val widths = header.indices.map(i => (header(i) +: rows.map(_(i))).map(_.length).max)
    sink(fmtRow(header, widths))
    sink(widths.map("-" * _).mkString("-+-"))
    rows.foreach(r => sink(fmtRow(r, widths)))
  }

  /** Spark-side FE for the business tables: SAFE/RAND/IMP over a DataFrame
    * (distributed statistics), ORIG as identity.
    */
  def runFESpark(method: String, train: LocalMatrix, spark: SparkSession,
                 seed: Long, cfg: SafeConfig = SafeConfig()): (FeaturePlan, Double) = {
    val t0 = System.nanoTime()
    val df = train.toDF(spark).cache()
    df.count()
    val plan = try method match {
      case "ORIG" => FeaturePlan(Nil, train.names.toSeq)
      case "RAND" => Safe.fitSpark(df, "label", cfg.copy(seed = seed), RandomCombos).plan
      case "IMP"  => Safe.fitSpark(df, "label", cfg.copy(seed = seed), ImportantCombos).plan
      case "SAFE" => Safe.fitSpark(df, "label", cfg.copy(seed = seed)).plan
      case other  => throw new IllegalArgumentException(s"unsupported Spark method $other")
    } finally df.unpersist()
    (plan, (System.nanoTime() - t0) / 1e9)
  }
}
