package repro.ml

import repro.core.Metrics
import scala.util.Random

/** The reference for [[RandomForest]]'s importances: the same forest with
  * the direct split search, where every candidate split of a node
  * partitions the node's rows and recounts their labels.
  */
object ReferenceForest {

  private val NTrees = 25
  private val MaxDepth = 4
  private val MinLeaf = 5

  /** Trains a forest on the sample and returns per-attribute importance,
    * normalized to sum to 1 (all-zero when the labels are constant).
    * Importance is keyed by attribute name.
    */
  def featureImportance(sample: Metrics.Table, seed: Long = 13): Map[String, Double] = {
    val n = sample.rows
    val attrs = sample.names
    val p = attrs.size
    val labels = Array.tabulate(n)(i => if (i < sample.t1Rows) 0 else 1)
    // Per attribute: the candidate splits of a node's rows, each true for the rows that go left.
    val splits: Seq[Array[Int] => Seq[Int => Boolean]] = attrs.map { a =>
      if (sample.isNumeric(a)) numericSplits(sample.doubles(a)) _
      else categoricalSplits(sample.codes(a), sample.stringValues(a)) _
    }
    def counts(idx: Array[Int]): (Int, Int) = { val c1 = idx.count(labels(_) == 1); (idx.length - c1, c1) }
    val imp = Array.fill(p)(0.0)
    val rnd = new Random(seed)
    val mtry = math.max(1, math.ceil(math.sqrt(p.toDouble)).toInt)

    // Greedy split search over a random feature subset; accumulates the
    // weighted impurity decrease of each chosen split into `imp`.
    def grow(idx: Array[Int], depth: Int): Unit = {
      val c = counts(idx)
      if (depth >= MaxDepth || idx.length < 2 * MinLeaf || c._1 == 0 || c._2 == 0) return
      val parentGini = gini(c)
      var best: Option[(Int, Int => Boolean, Double)] = None
      rnd.shuffle(attrs.indices.toList).take(mtry).foreach { f =>
        splits(f)(idx).foreach { left =>
          val (l, r) = idx.partition(left)
          if (l.length >= MinLeaf && r.length >= MinLeaf) {
            val t = (l.length + r.length).toDouble
            val gain = parentGini - (l.length / t) * gini(counts(l)) - (r.length / t) * gini(counts(r))
            if (best.forall(_._3 < gain)) best = Some((f, left, gain))
          }
        }
      }
      best match {
        case Some((f, left, gain)) if gain > 1e-9 =>
          imp(f) += gain * idx.length
          val (l, r) = idx.partition(left)
          grow(l, depth + 1)
          grow(r, depth + 1)
        case _ => ()
      }
    }

    (0 until NTrees).foreach(_ => grow(Array.fill(n)(rnd.nextInt(n)), depth = 0))
    val total = imp.sum
    attrs.zipWithIndex.map { case (a, i) =>
      a -> (if (total <= 0) 0.0 else imp(i) / total)
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

  /** `value <= threshold` (false for NaN) at up to 8 interior quantiles of the node's values. */
  private def numericSplits(values: Array[Double])(idx: Array[Int]): Seq[Int => Boolean] = {
    val distinct = idx.map(values(_)).filter(!_.isNaN).distinct.sorted
    if (distinct.length < 2) Nil
    else (1 to 8).map(k => distinct((distinct.length - 1) * k / 9)).distinct
      .map(th => (i: Int) => !values(i).isNaN && values(i) <= th)
  }

  /** `value = v` for the node's 16 most frequent values v. Values are
    * grouped by their strings, not their codes: ties in frequency, and then
    * in gain, keep the order of that `groupBy`.
    */
  private def categoricalSplits(codes: Array[Int], strings: Array[String])(idx: Array[Int]): Seq[Int => Boolean] =
    idx.filter(codes(_) >= 0).groupBy(strings(_)).toSeq.sortBy(-_._2.length).take(16)
      .map { case (_, rows) => val c = codes(rows.head); (i: Int) => codes(i) == c }
}
