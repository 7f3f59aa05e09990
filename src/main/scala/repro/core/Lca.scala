package repro.core

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

  /** Sample-row pairs that the candidates are generated from, at most. */
  private val MaxPairs = 250000L

  /** Generates distinct candidate patterns from the sample over the given
    * categorical attributes, most frequently generated first. Patterns with
    * more than `maxPreds` predicates are truncated to their `maxPreds`
    * most selective agreements (rarest constants first), which keeps the
    * candidates within the k_cat-style size limit of Algorithm 1.
    *
    * When the sample has more than `MaxPairs` pairs, every pair among m of
    * its rows is counted, m(m−1)/2 ≤ `MaxPairs` as large as can be: the
    * first ⌈m·nₜ/n⌉ of the nₜ rows of each question tuple, which the
    * sample holds in its seeded rank order. So t2's agreements are
    * generated as t1's are.
    *
    * Values are compared as the sample table's dictionary codes. A pair's
    * agreement, and so its candidate, depends only on the two rows' code
    * vectors over the attributes, so the rows are grouped by code vector
    * and each pair of distinct vectors u ≤ v is met once, weighted by the
    * mult(u)·mult(v) row pairs it stands for, or C(mult(u), 2) when u = v;
    * the cost is O(rows·k + D²·k) for D distinct vectors. The weighted
    * agreement is counted at a node of a trie over (attribute, code) steps
    * taken in attribute-name order, so a `Pattern` is built once per
    * distinct candidate rather than once per pair.
    */
  def candidates(sample: Metrics.Table, catAttrs: Seq[String], maxPreds: Int): Seq[Pattern.Pattern] = {
    val attrs = catAttrs.filter(sample.names.contains).toArray
    if (attrs.isEmpty || sample.rows < 2) return Nil
    val k = attrs.length
    // Per attribute: each row's value code (-1 for null) and how often each
    // code occurs in the sample; value frequencies pick the rarest (most
    // selective) agreements when truncating wide patterns.
    val codes = attrs.map(sample.codes)
    val freq = Array.tabulate(k) { a =>
      val f = new Array[Int](sample.strings(attrs(a)).length)
      codes(a).foreach(c => if (c >= 0) f(c) += 1)
      f
    }
    val nameRank = new Array[Int](k)
    attrs.indices.sortBy(attrs(_)).zipWithIndex.foreach { case (a, r) => nameRank(a) = r }

    // Node 0 is the root (the empty pattern); node v was reached from
    // parent(v) by step(v) = code · k + attribute and was generated
    // count(v) times.
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

    val rows: Array[Int] = {
      val n = sample.rows
      if (n.toLong * (n - 1) / 2 <= MaxPairs) Array.range(0, n)
      else {
        val m = Iterator.from(2).takeWhile(m => m.toLong * (m - 1) / 2 <= MaxPairs).max
        val n1 = sample.t1Rows
        def first(nt: Int) = math.ceil(m.toDouble * nt / n).toInt
        Array.range(0, first(n1)) ++ Array.range(n1, n1 + first(n - n1))
      }
    }
    val (vecs, mult) = distinctVectors(codes, rows)
    val d = mult.length
    val agree = new Array[Int](k)
    var u = 0
    while (u < d) {
      var v = u
      while (v < d) {
        // The pairs of one row of u and one of v, or of two rows of u.
        val pairs = if (u == v) mult(u) * (mult(u) - 1) / 2 else mult(u) * mult(v)
        var m = 0
        if (pairs > 0) {
          var a = 0
          while (a < k) {
            val c = vecs(u * k + a)
            if (c >= 0 && c == vecs(v * k + a)) { agree(m) = a; m += 1 }
            a += 1
          }
        }
        if (m > 0) {
          if (m > maxPreds) {
            sortPrefix(agree, m, a => freq(a)(vecs(u * k + a)))
            m = math.max(maxPreds, 0)
          }
          sortPrefix(agree, m, nameRank)
          var node = 0
          var t = 0
          while (t < m) {
            val s = vecs(u * k + agree(t)) * k + agree(t)
            val from = node
            node = child.getOrElseUpdate((from.toLong << 32) | s, newNode(from, s))
            t += 1
          }
          count(node) += pairs
        }
        v += 1
      }
      u += 1
    }

    def pattern(v: Int): Pattern.Pattern = {
      val preds = Iterator.iterate(v)(parent(_)).takeWhile(_ != 0).map { u =>
        val a = step(u) % k
        Pattern.Pred(attrs(a), Pattern.OpEq, Pattern.CatV(sample.strings(attrs(a))(step(u) / k)))
      }
      Pattern.Pattern.of(preds.toSeq: _*)
    }
    (0 until nodes).filter(count(_) > 0)
      .map { v => val p = pattern(v); (p, count(v), p.render) }
      .sortBy { case (_, c, r) => (-c, r) }
      .map(_._1)
  }

  /** The distinct vectors of `codes` (one array per attribute) over
    * `rows`, in order of first appearance, flattened `k` codes each, and
    * how many of `rows` have each.
    */
  private def distinctVectors(codes: Array[Array[Int]], rows: Array[Int]): (Array[Int], Array[Int]) = {
    val k = codes.length
    // Open addressing: slot s holds 1 + the index of a distinct vector.
    val slots = new Array[Int](Integer.highestOneBit(math.max(2 * rows.length, 1)) << 1)
    val vecs = new Array[Int](rows.length * k)
    val mult = new Array[Int](rows.length)
    var d = 0
    var x = 0
    while (x < rows.length) {
      val i = rows(x)
      var h = 1
      var a = 0
      while (a < k) { h = 31 * h + codes(a)(i); a += 1 }
      var s = scala.util.hashing.MurmurHash3.finalizeHash(h, k) & (slots.length - 1)
      var found = -1
      while (found < 0 && slots(s) != 0) {
        val w = slots(s) - 1
        var same = true
        a = 0
        while (same && a < k) { same = vecs(w * k + a) == codes(a)(i); a += 1 }
        if (same) found = w else s = (s + 1) & (slots.length - 1)
      }
      if (found < 0) {
        a = 0
        while (a < k) { vecs(d * k + a) = codes(a)(i); a += 1 }
        slots(s) = d + 1
        found = d
        d += 1
      }
      mult(found) += 1
      x += 1
    }
    (java.util.Arrays.copyOf(vecs, d * k), java.util.Arrays.copyOf(mult, d))
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
