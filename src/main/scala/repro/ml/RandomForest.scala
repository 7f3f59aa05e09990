package repro.ml

import scala.util.Random

/** A compact random-forest classifier used for attribute-relevance ranking
  * (paper Section 3.1, "Filtering Attributes based on Relevance").
  *
  * The paper trains a random forest predicting whether an APT row belongs
  * to the provenance of t1 or t2 and ranks attributes by feature
  * importance. The training sets here are tiny driver-local samples, so we
  * implement the forest directly (bootstrap + random feature subsets +
  * greedy Gini splits) rather than pulling in a pipeline framework;
  * importance is the classic total Gini impurity decrease per feature.
  */
object RandomForest {

  final case class Config(nTrees: Int = 25, maxDepth: Int = 4, minLeaf: Int = 5, seed: Long = 13)

  private sealed trait Split { def goesLeft(v: Any): Boolean; def feature: Int }
  private final case class NumSplit(feature: Int, threshold: Double) extends Split {
    def goesLeft(v: Any): Boolean = v match {
      case d: java.lang.Double => !d.isNaN && d <= threshold
      case _                   => false
    }
  }
  private final case class CatSplit(feature: Int, value: String) extends Split {
    def goesLeft(v: Any): Boolean = v != null && v.toString == value
  }

  /** Trains a forest on the sample and returns per-attribute importance,
    * normalized to sum to 1 (all-zero when the labels are constant).
    * Importance is keyed by attribute name.
    */
  def featureImportance(sample: LocalSample, cfg: Config = Config()): Map[String, Double] = {
    val n = sample.size
    val p = sample.attrs.size
    val imp = Array.fill(p)(0.0)
    if (n == 0 || p == 0 || sample.labels.distinct.size < 2)
      return sample.attrs.map(_.name -> 0.0).toMap
    val rnd = new Random(cfg.seed)
    val mtry = math.max(1, math.ceil(math.sqrt(p.toDouble)).toInt)
    (0 until cfg.nTrees).foreach { _ =>
      val idx = Array.fill(n)(rnd.nextInt(n))
      growTree(sample, idx, depth = 0, cfg, rnd, mtry, imp)
    }
    val total = imp.sum
    sample.attrs.zipWithIndex.map { case (a, i) =>
      a.name -> (if (total <= 0) 0.0 else imp(i) / total)
    }.toMap
  }

  private def gini(counts: (Int, Int)): Double = {
    val t = counts._1 + counts._2
    if (t == 0) 0.0
    else {
      val p0 = counts._1.toDouble / t; val p1 = counts._2.toDouble / t
      1.0 - p0 * p0 - p1 * p1
    }
  }

  private def labelCounts(sample: LocalSample, idx: Array[Int]): (Int, Int) = {
    var c0 = 0; var c1 = 0
    idx.foreach(i => if (sample.labels(i) == 0) c0 += 1 else c1 += 1)
    (c0, c1)
  }

  /** Greedy split search over a random feature subset; accumulates the
    * weighted impurity decrease of each chosen split into `imp`.
    */
  private def growTree(sample: LocalSample, idx: Array[Int], depth: Int, cfg: Config,
                       rnd: Random, mtry: Int, imp: Array[Double]): Unit = {
    val counts = labelCounts(sample, idx)
    if (depth >= cfg.maxDepth || idx.length < 2 * cfg.minLeaf || counts._1 == 0 || counts._2 == 0) return
    val parentGini = gini(counts)
    val features = rnd.shuffle(sample.attrs.indices.toList).take(mtry)
    var best: Option[(Split, Double)] = None
    features.foreach { f =>
      val candidate =
        if (sample.attrs(f).numeric) bestNumericSplit(sample, idx, f, parentGini, cfg)
        else bestCategoricalSplit(sample, idx, f, parentGini, cfg)
      candidate.foreach { case (s, gain) =>
        if (best.forall(_._2 < gain)) best = Some((s, gain))
      }
    }
    best match {
      case Some((split, gain)) if gain > 1e-9 =>
        imp(split.feature) += gain * idx.length
        val (l, r) = idx.partition(i => split.goesLeft(sample.rows(i)(split.feature)))
        growTree(sample, l, depth + 1, cfg, rnd, mtry, imp)
        growTree(sample, r, depth + 1, cfg, rnd, mtry, imp)
      case _ => ()
    }
  }

  private def splitGain(sample: LocalSample, parentGini: Double,
                        l: Array[Int], r: Array[Int], minLeaf: Int): Option[Double] = {
    if (l.length < minLeaf || r.length < minLeaf) None
    else {
      val t = (l.length + r.length).toDouble
      val g = parentGini -
        (l.length / t) * gini(labelCounts(sample, l)) -
        (r.length / t) * gini(labelCounts(sample, r))
      Some(g)
    }
  }

  private def bestNumericSplit(sample: LocalSample, idx: Array[Int], f: Int,
                               parentGini: Double, cfg: Config): Option[(Split, Double)] = {
    val vals = idx.map(i => sample.rows(i)(f)).collect { case d: java.lang.Double if !d.isNaN => d.doubleValue }
    if (vals.isEmpty) return None
    val distinct = vals.distinct.sorted
    if (distinct.length < 2) return None
    // Candidate thresholds: up to 8 interior quantiles of the node's values.
    val qs = (1 to 8).map(k => distinct((distinct.length - 1) * k / 9)).distinct
    qs.flatMap { th =>
      val split = NumSplit(f, th)
      val (l, r) = idx.partition(i => split.goesLeft(sample.rows(i)(f)))
      splitGain(sample, parentGini, l, r, cfg.minLeaf).map(g => (split: Split, g))
    }.sortBy(-_._2).headOption
  }

  private def bestCategoricalSplit(sample: LocalSample, idx: Array[Int], f: Int,
                                   parentGini: Double, cfg: Config): Option[(Split, Double)] = {
    val vals = idx.map(i => sample.rows(i)(f)).filter(_ != null).map(_.toString)
    if (vals.isEmpty) return None
    val top = vals.groupBy(identity).toSeq.sortBy(-_._2.length).take(16).map(_._1)
    top.flatMap { v =>
      val split = CatSplit(f, v)
      val (l, r) = idx.partition(i => split.goesLeft(sample.rows(i)(f)))
      splitGain(sample, parentGini, l, r, cfg.minLeaf).map(g => (split: Split, g))
    }.sortBy(-_._2).headOption
  }
}
