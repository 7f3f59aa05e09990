package repro.ml

import java.util.Arrays
import repro.core.Metrics
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
  * split partitions the node's rows. Both run over primitive arrays only.
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
    val labels = new Array[Int](n)
    Arrays.fill(labels, sample.t1Rows, n, 1)
    val columns = attrs.map(column(sample, _)).toArray
    val imp = new Array[Double](p)
    val rnd = new Random(seed)
    val mtry = math.max(1, math.ceil(math.sqrt(p.toDouble)).toInt)
    val order = new Array[Int](p)
    val found = new Candidates

    // A tree grows from the distinct rows of its bootstrap draw, in order of
    // first draw, each weighted by how often it was drawn: every count, and
    // the order in which a node's codes first appear, is that of the draw.
    val weight = new Array[Int](n)
    // A node's rows are `idx(from until until)`, in draw order; a split
    // moves its right rows through `spill`, so each child keeps that order.
    val idx, spill = new Array[Int](n)

    // Greedy split search over a random feature subset; accumulates the
    // weighted impurity decrease of each chosen split into `imp`. The first
    // candidate of the highest gain wins.
    def grow(from: Int, until: Int, depth: Int): Unit = {
      var size, c1 = 0
      var x = from
      while (x < until) { size += weight(idx(x)); c1 += weight(idx(x)) * labels(idx(x)); x += 1 }
      val c0 = size - c1
      if (depth >= MaxDepth || size < 2 * MinLeaf || c0 == 0 || c1 == 0) return
      val parentGini = gini(c0, c1)
      var bestF, bestKey = -1
      var bestGain = 0.0
      shuffle(rnd, order)
      var o = 0
      while (o < math.min(mtry, p)) {
        val f = order(o)
        columns(f).splits(idx, from, until, weight, labels, found)
        var c = 0
        while (c < found.size) {
          val l = found.left(c)
          val l1 = found.leftT2(c)
          val r = size - l
          val r1 = c1 - l1
          if (l >= MinLeaf && r >= MinLeaf) {
            val t = (l + r).toDouble
            val gain = parentGini - (l / t) * gini(l - l1, l1) - (r / t) * gini(r - r1, r1)
            if (bestF < 0 || bestGain < gain) { bestF = f; bestKey = found.key(c); bestGain = gain }
          }
          c += 1
        }
        o += 1
      }
      if (bestF >= 0 && bestGain > 1e-9) {
        imp(bestF) += bestGain * size
        val column = columns(bestF)
        var l, r = 0
        x = from
        while (x < until) {
          val i = idx(x)
          if (column.left(bestKey, i)) { idx(from + l) = i; l += 1 } else { spill(r) = i; r += 1 }
          x += 1
        }
        System.arraycopy(spill, 0, idx, from + l, r)
        grow(from, from + l, depth + 1)
        grow(from + l, until, depth + 1)
      }
    }

    var tree = 0
    while (tree < NTrees) {
      Arrays.fill(weight, 0)
      var m, x = 0
      while (x < n) {
        val i = rnd.nextInt(n)
        if (weight(i) == 0) { idx(m) = i; m += 1 }
        weight(i) += 1
        x += 1
      }
      grow(0, m, depth = 0)
      tree += 1
    }
    val total = imp.sum
    Map.from(attrs.iterator.zipWithIndex.map { case (a, i) =>
      a -> (if (total <= 0) 0.0 else imp(i) / total)
    })
  }

  /** Puts `0 until xs.length` into `xs` in the order that `rnd.shuffle`
    * gives that range, with the same calls on `rnd`.
    */
  private def shuffle(rnd: Random, xs: Array[Int]): Unit = {
    var i = 0
    while (i < xs.length) { xs(i) = i; i += 1 }
    var m = xs.length
    while (m >= 2) {
      val k = rnd.nextInt(m)
      val t = xs(m - 1); xs(m - 1) = xs(k); xs(k) = t
      m -= 1
    }
  }

  /** The candidate splits of one column at one node: split c sends
    * `left(c)` rows, `leftT2(c)` of them t2's, to the left, and `key(c)`
    * is its key. At most 16 per search.
    */
  private final class Candidates {
    val key, left, leftT2 = new Array[Int](16)
    var size = 0
    def add(k: Int, l: Int, l1: Int): Unit = { key(size) = k; left(size) = l; leftT2(size) = l1; size += 1 }
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

  /** Attribute `a` of the sample as codes: a value's code is its rank
    * among the distinct values the sample holds, numbers by value (−0.0
    * and 0.0 are one value) and strings by `compareTo`. NaN and null are
    * -1.
    */
  private def column(sample: Metrics.Table, a: String): Column =
    if (sample.isNumeric(a)) {
      val values = sample.doubles(a)
      val ranked = new Array[Double](values.length)
      var m = 0
      var i = 0
      while (i < values.length) {
        values(i) += 0.0 // −0.0 + 0.0 is 0.0
        if (!values(i).isNaN) { ranked(m) = values(i); m += 1 }
        i += 1
      }
      val d = distinctSorted(ranked, m)
      val code = new Array[Int](values.length)
      i = 0
      while (i < values.length) {
        code(i) = if (values(i).isNaN) -1 else Arrays.binarySearch(ranked, 0, d, values(i))
        i += 1
      }
      new NumericColumn(code, d)
    } else {
      val dict = sample.codes(a)
      val strings = sample.strings(a)
      // The dictionary codes the sample holds, ascending, and their strings.
      val present = new Array[Int](dict.length)
      var m = 0
      var i = 0
      while (i < dict.length) { if (dict(i) >= 0) { present(m) = dict(i); m += 1 }; i += 1 }
      Arrays.sort(present, 0, m)
      var d = 0
      i = 0
      while (i < m) { if (d == 0 || present(i) != present(d - 1)) { present(d) = present(i); d += 1 }; i += 1 }
      val sorted = new Array[AnyRef](d) // Strings, sorted by `compareTo`
      i = 0
      while (i < d) { sorted(i) = strings(present(i)); i += 1 }
      Arrays.sort(sorted)
      // The dictionary strings are distinct, so each has one rank.
      val rank = new Array[Int](d)
      i = 0
      while (i < d) { rank(i) = Arrays.binarySearch(sorted, strings(present(i))); i += 1 }
      val code = new Array[Int](dict.length)
      i = 0
      while (i < dict.length) {
        code(i) = if (dict(i) < 0) -1 else rank(Arrays.binarySearch(present, 0, d, dict(i)))
        i += 1
      }
      new CategoricalColumn(code, d)
    }

  /** Sorts `xs(0 until m)`, none NaN, moves its distinct values to the
    * front and returns how many there are.
    */
  private def distinctSorted(xs: Array[Double], m: Int): Int = {
    Arrays.sort(xs, 0, m)
    var d = 0
    var i = 0
    while (i < m) { if (d == 0 || xs(i) != xs(d - 1)) { xs(d) = xs(i); d += 1 }; i += 1 }
    d
  }

  /** One attribute's codes `0 until values` (-1 for null or NaN) per sample
    * row, with the counters of one node's split search.
    */
  private abstract class Column(code: Array[Int], values: Int) {
    /** Rows and t2 rows of each code at the node being searched. */
    protected val rows = new Array[Int](values)
    protected val t2 = new Array[Int](values)
    /** The node's distinct codes, in order of first appearance. */
    protected val present = new Array[Int](values)

    /** Sets `out` to the candidate splits of the node's rows
      * `idx(from until until)`, row i counted `weight(i)` times, in order.
      */
    final def splits(idx: Array[Int], from: Int, until: Int, weight: Array[Int], labels: Array[Int],
                     out: Candidates): Unit = {
      var m = 0
      var x = from
      while (x < until) {
        val i = idx(x)
        val c = code(i)
        if (c >= 0) {
          if (rows(c) == 0) { present(m) = c; m += 1 }
          rows(c) += weight(i)
          t2(c) += weight(i) * labels(i)
        }
        x += 1
      }
      out.size = 0
      candidates(m, out)
      var k = 0
      while (k < m) { rows(present(k)) = 0; t2(present(k)) = 0; k += 1 }
    }

    /** Adds the candidates over the node's `m` distinct codes `present`
      * to `out`; may reorder `present(0 until m)`.
      */
    protected def candidates(m: Int, out: Candidates): Unit

    /** Whether sample row `i` goes left in the split of `key`. */
    def left(key: Int, i: Int): Boolean
  }

  /** `value <= threshold` (false for NaN) at up to 8 interior quantiles of
    * the node's distinct values; a key is the threshold's code.
    */
  private final class NumericColumn(code: Array[Int], values: Int) extends Column(code, values) {
    protected def candidates(m: Int, out: Candidates): Unit =
      if (m >= 2) {
        // The node's codes in ascending order, read off the counters.
        var d, c = 0
        while (c < values) { if (rows(c) > 0) { present(d) = c; d += 1 }; c += 1 }
        var next, l, l1 = 0
        var k = 1
        while (k <= 8) {
          val j = (m - 1) * k / 9
          if (j >= next) {
            while (next <= j) { l += rows(present(next)); l1 += t2(present(next)); next += 1 }
            out.add(present(j), l, l1)
          }
          k += 1
        }
      }

    def left(key: Int, i: Int): Boolean = code(i) >= 0 && code(i) <= key
  }

  /** `value = v` for the node's 16 most frequent values v, by weighted row
    * count descending and then by string ascending (the code's order); a
    * key is v's code. A tie in gain keeps that order.
    */
  private final class CategoricalColumn(code: Array[Int], values: Int) extends Column(code, values) {
    /** (−count, code) of each of the node's codes, packed in a `Long`. */
    private val byCount = new Array[Long](values)

    protected def candidates(m: Int, out: Candidates): Unit = {
      var k = 0
      while (k < m) { val c = present(k); byCount(k) = (-rows(c).toLong << 32) | c; k += 1 }
      Arrays.sort(byCount, 0, m)
      k = 0
      while (k < math.min(m, 16)) { val c = byCount(k).toInt; out.add(c, rows(c), t2(c)); k += 1 }
    }

    def left(key: Int, i: Int): Boolean = code(i) == key
  }
}
