package repro.ml

import repro.core.Metrics
import scala.collection.mutable
import scala.util.Random

/** A compact random-forest classifier used for attribute-relevance ranking
  * (paper Section 3.1, "Filtering Attributes based on Relevance").
  *
  * The paper trains a random forest predicting whether an APT row belongs
  * to the provenance of t1 or t2 and ranks attributes by feature
  * importance. The training sets here are tiny driver-local samples, so we
  * implement the forest directly (bootstrap + random feature subsets +
  * greedy Gini splits) rather than pulling in a pipeline framework;
  * importance is the classic total Gini impurity decrease per feature
  * (Breiman, "Random Forests", 2001).
  *
  * Splits are searched from counts, as histogram-based trees do (Ke et al.,
  * "LightGBM", NeurIPS 2017): at a node, one pass over its rows counts the
  * rows and t2 rows of each value of an attribute, and every candidate
  * split of that attribute is scored from those counts. Only the chosen
  * split partitions the node's rows.
  */
object RandomForest {

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
    val columns = attrs.map(column(sample, _))
    val imp = Array.fill(p)(0.0)
    val rnd = new Random(seed)
    val mtry = math.max(1, math.ceil(math.sqrt(p.toDouble)).toInt)

    // Greedy split search over a random feature subset; accumulates the
    // weighted impurity decrease of each chosen split into `imp`. The first
    // candidate of the highest gain wins.
    def grow(idx: Array[Int], depth: Int): Unit = {
      var c1 = 0
      idx.foreach(i => c1 += labels(i))
      val c0 = idx.length - c1
      if (depth >= MaxDepth || idx.length < 2 * MinLeaf || c0 == 0 || c1 == 0) return
      val parentGini = gini(c0, c1)
      var bestF, bestKey = -1
      var bestGain = 0.0
      rnd.shuffle(attrs.indices.toList).take(mtry).foreach { f =>
        columns(f).splits(idx, labels) { (key, l, l1) =>
          val r = idx.length - l
          val r1 = c1 - l1
          if (l >= MinLeaf && r >= MinLeaf) {
            val t = (l + r).toDouble
            val gain = parentGini - (l / t) * gini(l - l1, l1) - (r / t) * gini(r - r1, r1)
            if (bestF < 0 || bestGain < gain) { bestF = f; bestKey = key; bestGain = gain }
          }
        }
      }
      if (bestF >= 0 && bestGain > 1e-9) {
        imp(bestF) += bestGain * idx.length
        val (l, r) = idx.partition(columns(bestF).left(bestKey))
        grow(l, depth + 1)
        grow(r, depth + 1)
      }
    }

    (0 until NTrees).foreach(_ => grow(Array.fill(n)(rnd.nextInt(n)), depth = 0))
    val total = imp.sum
    attrs.zipWithIndex.map { case (a, i) =>
      a -> (if (total <= 0) 0.0 else imp(i) / total)
    }.toMap
  }

  /** Gini impurity of `c0` t1 rows and `c1` t2 rows. */
  private def gini(c0: Int, c1: Int): Double = {
    val t = c0 + c1
    if (t == 0) 0.0
    else {
      val p0 = c0.toDouble / t; val p1 = c1.toDouble / t
      1.0 - p0 * p0 - p1 * p1
    }
  }

  /** Attribute `a` of the sample as codes. A numeric value's code is its
    * rank among the sample's distinct values, where −0.0 and 0.0 are one
    * value; a categorical value's code is its code in the table's
    * dictionary. NaN and null are -1.
    */
  private def column(sample: Metrics.Table, a: String): Column =
    if (sample.isNumeric(a)) {
      val values = sample.doubles(a).map(_ + 0.0) // −0.0 + 0.0 is 0.0
      val sorted = values.filter(!_.isNaN)
      java.util.Arrays.sort(sorted)
      val ranked = sorted.distinct
      new NumericColumn(values.map(v => if (v.isNaN) -1 else java.util.Arrays.binarySearch(ranked, v)), ranked.length)
    } else new CategoricalColumn(sample.codes(a), sample.strings(a))

  /** One attribute's codes `0 until values` (-1 for null or NaN) per sample
    * row, with the counters of one node's split search.
    */
  private abstract class Column(code: Array[Int], values: Int) {
    /** Rows and t2 rows of each code at the node being searched. */
    protected val rows = new Array[Int](values)
    protected val t2 = new Array[Int](values)
    /** The node's distinct codes, in order of first appearance. */
    protected val present = new Array[Int](values)

    /** Calls `consider(key, left rows, left t2 rows)` for each candidate
      * split of the node's rows `idx`, in order.
      */
    final def splits(idx: Array[Int], labels: Array[Int])(consider: (Int, Int, Int) => Unit): Unit = {
      var m = 0
      idx.foreach { i =>
        val c = code(i)
        if (c >= 0) {
          if (rows(c) == 0) { present(m) = c; m += 1 }
          rows(c) += 1
          t2(c) += labels(i)
        }
      }
      candidates(m, consider)
      (0 until m).foreach { k => rows(present(k)) = 0; t2(present(k)) = 0 }
    }

    /** The candidates over the node's `m` distinct codes `present`. */
    protected def candidates(m: Int, consider: (Int, Int, Int) => Unit): Unit

    /** Whether sample row `i` goes left in the split of `key`. */
    def left(key: Int)(i: Int): Boolean
  }

  /** `value <= threshold` (false for NaN) at up to 8 interior quantiles of
    * the node's distinct values; a key is the threshold's code.
    */
  private final class NumericColumn(code: Array[Int], values: Int) extends Column(code, values) {
    protected def candidates(m: Int, consider: (Int, Int, Int) => Unit): Unit =
      if (m >= 2) {
        java.util.Arrays.sort(present, 0, m)
        var next, l, l1 = 0
        (1 to 8).foreach { k =>
          val j = (m - 1) * k / 9
          if (j >= next) {
            while (next <= j) { l += rows(present(next)); l1 += t2(present(next)); next += 1 }
            consider(present(j), l, l1)
          }
        }
      }

    def left(key: Int)(i: Int): Boolean = code(i) >= 0 && code(i) <= key
  }

  /** `value = v` for the node's 16 most frequent values v; a key is v's
    * code. Ties in frequency, and then in gain, keep the order in which
    * grouping the node's rows by their strings (`groupBy`) lists the
    * values: that of a `mutable.HashMap` turned `toMap` (insertion order up
    * to 4 keys, hash order above), here filled with the node's distinct
    * values in order of first appearance.
    */
  private final class CategoricalColumn(code: Array[Int], strings: Array[String])
      extends Column(code, strings.length) {
    protected def candidates(m: Int, consider: (Int, Int, Int) => Unit): Unit = {
      val byString = mutable.HashMap.empty[String, Int]
      (0 until m).foreach(k => byString.getOrElseUpdate(strings(present(k)), present(k)))
      byString.toMap.values.toSeq.sortBy(c => -rows(c)).take(16).foreach(c => consider(c, rows(c), t2(c)))
    }

    def left(key: Int)(i: Int): Boolean = code(i) == key
  }
}
