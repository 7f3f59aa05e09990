package repro.core

import repro.ml.LocalSample

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
    */
  def candidates(sample: LocalSample, catAttrs: Seq[String], maxPreds: Int): Seq[Pattern.Pattern] = {
    val idx = catAttrs.map(a => a -> sample.attrIndex(a)).filter(_._2 >= 0)
    if (idx.isEmpty || sample.size < 2) return Nil
    val cols: Map[String, Vector[String]] = idx.map { case (a, i) => a -> sample.categoricalValues(i) }.toMap
    // Value frequencies per attribute: used to keep the rarest (most
    // selective) agreements when truncating wide patterns.
    val freq: Map[String, Map[String, Int]] = cols.map { case (a, vs) =>
      a -> vs.filter(_ != null).groupBy(identity).map { case (v, g) => v -> g.size }
    }
    val n = sample.size
    val counts = scala.collection.mutable.Map.empty[Pattern.Pattern, Int]
    var pairs = 0
    var i = 0
    while (i < n && pairs < MaxPairs) {
      var j = i + 1
      while (j < n && pairs < MaxPairs) {
        val preds = idx.flatMap { case (a, _) =>
          val vi = cols(a)(i); val vj = cols(a)(j)
          if (vi != null && vi == vj) Some(Pattern.Pred(a, Pattern.OpEq, Pattern.CatV(vi))) else None
        }
        if (preds.nonEmpty) {
          val kept =
            if (preds.size <= maxPreds) preds
            else preds.sortBy(p => freq(p.attr).getOrElse(p.value.render, 0)).take(maxPreds)
          val pat = Pattern.Pattern.of(kept: _*)
          counts(pat) = counts.getOrElse(pat, 0) + 1
        }
        pairs += 1
        j += 1
      }
      i += 1
    }
    counts.toSeq.sortBy { case (p, c) => (-c, p.render) }.map(_._1)
  }
}
