package repro.core

import repro.ml.LocalSample
import scala.collection.mutable

/** LCA (lowest-common-ancestor) pattern-candidate generation (paper
  * Section 3.2, adopted from Explanation Tables [19]).
  *
  * For every pair of rows in the sample, the candidate pattern keeps an
  * equality predicate on each categorical attribute the two rows agree on
  * (numeric attributes stay `*` at this stage). Frequently co-occurring
  * constant combinations therefore surface as frequently generated
  * patterns; we rank candidates by generation frequency before the
  * APT-backed recall filtering step.
  */
object Lca {

  /** Sample-row pairs examined at most per call. */
  private val MaxPairs = 250000

  /** Generates distinct candidate patterns from the sample over the given
    * categorical attributes, most frequently generated first. Patterns with
    * more than `maxPreds` predicates are truncated to their `maxPreds`
    * most selective agreements (rarest constants first), which keeps the
    * candidates within the k_cat-style size limit of Algorithm 1.
    *
    * Values are compared as per-attribute integer codes, and each pair's
    * agreement is counted at a node of a trie over (attribute, code) steps
    * taken in attribute-name order, so a `Pattern` is built once per
    * distinct candidate rather than once per pair.
    */
  def candidates(sample: LocalSample, catAttrs: Seq[String], maxPreds: Int): Seq[Pattern.Pattern] = {
    val attrs = catAttrs.filter(sample.attrIndex(_) >= 0).toArray
    if (attrs.isEmpty || sample.size < 2) return Nil
    val k = attrs.length
    val values = attrs.map(a => sample.categoricalValues(sample.attrIndex(a)))
    // Per attribute: the distinct values, each row's value code (-1 for
    // null) and how often each code occurs; value frequencies pick the
    // rarest (most selective) agreements when truncating wide patterns.
    val dicts = values.map(_.iterator.filter(_ != null).distinct.toArray)
    val codes = values.zip(dicts).map { case (vs, d) =>
      val code = d.zipWithIndex.toMap
      vs.map(v => if (v == null) -1 else code(v)).toArray
    }
    val freq = codes.zip(dicts).map { case (cs, d) =>
      val f = new Array[Int](d.length)
      cs.foreach(c => if (c >= 0) f(c) += 1)
      f
    }
    // Step s of the trie is value s - offset(a) of attribute a.
    val offset = dicts.scanLeft(0)(_ + _.length)
    val nameRank = new Array[Int](k)
    attrs.indices.sortBy(attrs(_)).zipWithIndex.foreach { case (a, r) => nameRank(a) = r }

    // Node 0 is the root (the empty pattern); node v was reached from
    // parent(v) by step(v) and was generated count(v) times.
    val child = mutable.LongMap.empty[Int]
    var parent = new Array[Int](1024)
    var step = new Array[Int](1024)
    var count = new Array[Int](1024)
    var nodes = 1
    def newNode(from: Int, s: Int): Int = {
      if (nodes == parent.length) {
        parent = java.util.Arrays.copyOf(parent, 2 * nodes)
        step = java.util.Arrays.copyOf(step, 2 * nodes)
        count = java.util.Arrays.copyOf(count, 2 * nodes)
      }
      parent(nodes) = from
      step(nodes) = s
      nodes += 1
      nodes - 1
    }

    val n = sample.size
    val agree = new Array[Int](k)
    var pairs = 0
    var i = 0
    while (i < n && pairs < MaxPairs) {
      var j = i + 1
      while (j < n && pairs < MaxPairs) {
        var m = 0
        var a = 0
        while (a < k) {
          val c = codes(a)(i)
          if (c >= 0 && c == codes(a)(j)) { agree(m) = a; m += 1 }
          a += 1
        }
        if (m > 0) {
          if (m > maxPreds) {
            sortPrefix(agree, m, a => freq(a)(codes(a)(i)))
            m = math.max(maxPreds, 0)
          }
          sortPrefix(agree, m, nameRank)
          var node = 0
          var t = 0
          while (t < m) {
            val s = offset(agree(t)) + codes(agree(t))(i)
            val from = node
            node = child.getOrElseUpdate((from.toLong << 32) | s, newNode(from, s))
            t += 1
          }
          count(node) += 1
        }
        pairs += 1
        j += 1
      }
      i += 1
    }

    val attrOfStep = new Array[Int](offset(k))
    (0 until k).foreach(a => java.util.Arrays.fill(attrOfStep, offset(a), offset(a + 1), a))
    def pattern(v: Int): Pattern.Pattern = {
      val preds = Iterator.iterate(v)(parent(_)).takeWhile(_ != 0).map { u =>
        val a = attrOfStep(step(u))
        Pattern.Pred(attrs(a), Pattern.OpEq, Pattern.CatV(dicts(a)(step(u) - offset(a))))
      }
      Pattern.Pattern.of(preds.toSeq: _*)
    }
    (0 until nodes).filter(count(_) > 0)
      .map { v => val p = pattern(v); (p, count(v), p.render) }
      .sortBy { case (_, c, r) => (-c, r) }
      .map(_._1)
  }

  /** Stably sorts `xs(0 until m)` by `key`; `m` is at most the number of
    * attributes, so insertion sort.
    */
  private def sortPrefix(xs: Array[Int], m: Int, key: Int => Int): Unit = {
    var i = 1
    while (i < m) {
      val x = xs(i)
      var j = i - 1
      while (j >= 0 && key(xs(j)) > key(x)) { xs(j + 1) = xs(j); j -= 1 }
      xs(j + 1) = x
      i += 1
    }
  }
}
