package repro.core

import org.apache.spark.sql.DataFrame
import repro.ml.LocalSample
import scala.collection.mutable

/** MineAPT (paper Algorithm 1): top-k pattern mining over one augmented
  * provenance table.
  *
  * Phases: (i) sample + feature selection, (ii) LCA candidates over
  * categorical attributes, (iii) recall filtering with the monotonicity
  * pruning of Proposition 3.1, (iv) numeric refinement over domain
  * fragments, (v) diverse top-k by wscore. The APT is a driver-side
  * `Metrics.Table` built by [[Join.Apts]]; the sample, the fragments and
  * every candidate evaluation are computed from it without a Spark job.
  * Candidates are evaluated on the rows of the PT tuples in the λ_F1-samp
  * sample, and the returned top-k is re-scored exactly on all rows so
  * reported supports are precise.
  */
object Mine {

  /** An explanation E = (Ω, Φ, (v1, a1), (v2, a2)) with quality metrics. */
  final case class Explanation(
      jg: Schema.JoinGraph,
      pattern: Pattern.Pattern,
      quality: Metrics.Quality,
  ) {
    def fscore: Double = quality.fscore
    def render: String =
      f"${pattern.render} [${quality.primary}]  F=${quality.fscore}%.2f P=${quality.precision}%.2f R=${quality.recall}%.2f " +
        s"sup=(${quality.support1._1}/${quality.support1._2}, ${quality.support2._1}/${quality.support2._2})"
  }

  /** Wall-clock accumulator for the step breakdown of Figures 7/9. */
  final class StepTimer {
    val totals: scala.collection.mutable.LinkedHashMap[String, Double] =
      scala.collection.mutable.LinkedHashMap.empty
    def time[T](step: String)(f: => T): T = {
      val t0 = System.nanoTime()
      val r = f
      totals(step) = totals.getOrElse(step, 0.0) + (System.nanoTime() - t0) / 1e9
      r
    }
    def seconds(step: String): Double = totals.getOrElse(step, 0.0)
  }

  /** Size statistics of a materialized APT (Figure 10a). */
  final case class AptStats(rows: Long, attributes: Int)

  final case class MineResult(explanations: Seq[Explanation], aptStats: AptStats)

  /** |PT(Q,D,t1)| and |PT(Q,D,t2)|, and the same counts over the PT
    * tuples of the λ_F1-samp sample (equal to them at λ_F1-samp = 1).
    */
  final case class QuestionSizes(n1: Long, n2: Long, s1: Long, s2: Long)

  /** Mines the top-k patterns for join graph `jg` over the provenance `pt`
    * of the user question (a frame with prov_ columns, `pt_id`, `grp`):
    * collects `pt` and the relations of `jg` and mines the APT built from
    * them on the driver, as `explain` does.
    */
  def mineJoinGraph(db: Schema.Database, q: Query.QuerySpec, pt: DataFrame,
                    jg: Schema.JoinGraph, params: Params,
                    timer: StepTimer = new StepTimer): MineResult = {
    val apts = timer.time("Materialize APTs") { Join.Apts(db, q, pt, params) }
    mineJoinGraph(apts, jg, params, timer)
  }

  /** Mines the top-k patterns for join graph `jg` over the question's APTs
    * `apts`. The APT is built on the driver from its parent graph's
    * ([[Join.Apts]]) and projected onto its pattern columns; every later
    * step works on that table.
    */
  def mineJoinGraph(apts: Join.Apts, jg: Schema.JoinGraph, params: Params, timer: StepTimer): MineResult = {
    val QuestionSizes(n1, n2, s1, s2) = apts.sizes
    val (table, attrCols) = timer.time("Materialize APTs") {
      val apt = apts(jg)
      val cols = Apt.patternColumns(apt.names, apts.q)
      (apt.project(cols), cols)
    }
    val stats = AptStats(table.rows.toLong, attrCols.size)
    if (n1 == 0 || n2 == 0) return MineResult(Nil, stats)

    // Candidates are evaluated on the F1-sampled rows, or on all rows when
    // the sample misses t1 or t2.
    val sampled = params.f1SampleRate < 1.0 && s1 > 0 && s2 > 0
    val (evalTable, en1, en2) = timer.time("Sampling for F1") {
      if (sampled) (table.flagged, s1, s2) else (table, n1, n2)
    }

    val sample = timer.time("Feature Selection") {
      LocalSample.draw(table, attrCols, params.patSampleRate, params.patSampleCap, params.seed)
    }
    val selected = timer.time("Feature Selection") {
      FeatureSelect.filterAttrs(sample, params)
    }

    val catCandidates = timer.time("Gen. Pat. Cand.") {
      Lca.candidates(sample, selected.categorical, params.maxCatPreds)
    }

    // Recall-filter LCA candidates against the (sampled) APT and promote
    // the k_cat best by recall (either orientation), plus the empty
    // pattern as the root for numeric-only refinements.
    val catQuality = timer.time("F-score Calc.") {
      evaluate(evalTable, catCandidates, en1, en2)
    }
    val promoted: Seq[Pattern.Pattern] = catQuality
      .filter { case (_, q1, q2) => q1.recall >= params.recallThreshold || q2.recall >= params.recallThreshold }
      .sortBy { case (_, q1, q2) => -math.max(q1.recall, q2.recall) }
      .take(params.kCat)
      .map(_._1)

    val fragments: Map[String, Seq[Double]] = timer.time("Refine Patterns") {
      numericFragments(evalTable, selected.numeric, params.nFragments)
    }

    // The pool of diverse top-k (Section 3.5): the patterns evaluated, each
    // in both orientations, that reach λ_recall. Patterns that cover the
    // entire provenance of BOTH tuples separate nothing (tautologies like
    // `flag<=1`) and are left out.
    val pool = mutable.ArrayBuffer.empty[(Pattern.Pattern, Metrics.Quality)]
    def addToPool(evaluated: Seq[(Pattern.Pattern, Metrics.Quality, Metrics.Quality)]): Unit =
      for ((p, q1, q2) <- evaluated; qu <- Seq(q1, q2))
        if (!p.isEmpty && qu.recall >= params.recallThreshold &&
            !(qu.support1._1 == qu.support1._2 && qu.support2._1 == qu.support2._2)) pool += ((p, qu))
    addToPool(catQuality)

    // Level-wise numeric refinement with monotonicity pruning: a pattern
    // whose recall is below λ_recall for both orientations cannot yield a
    // useful refinement (Proposition 3.1) and is dropped from the beam.
    var frontier: Seq[Pattern.Pattern] = promoted :+ Pattern.Pattern.empty
    val done = scala.collection.mutable.Set.empty[Pattern.Pattern]
    done ++= catCandidates
    done += Pattern.Pattern.empty
    var level = 0
    while (frontier.nonEmpty && level < params.maxNumericPreds) {
      val expansions = timer.time("Refine Patterns") {
        (for {
          p <- frontier
          if p.numericPredCount < params.maxNumericPreds
          a <- selected.numeric
          if !p.attrs(a)
          op <- Seq(Pattern.OpLe, Pattern.OpGe)
          c <- fragments.getOrElse(a, Nil)
        } yield p.refined(Pattern.Pred(a, op, Pattern.NumV(c))))
          .distinct.filterNot(done)
          .take(4096) // blow-up guard for the Naive (no feature selection) configuration
      }
      done ++= expansions
      val evaluated = timer.time("F-score Calc.") {
        evaluate(evalTable, expansions, en1, en2)
      }
      addToPool(evaluated)
      frontier = evaluated
        .filter { case (_, q1, q2) => q1.recall >= params.recallThreshold || q2.recall >= params.recallThreshold }
        .sortBy { case (_, q1, q2) => -math.max(q1.fscore, q2.fscore) }
        .take(params.maxFrontier)
        .map(_._1)
      level += 1
    }

    // Diverse top-k on the estimated scores…
    val picked = timer.time("Diverse Top-k") { selectDiverse(pool.toSeq, params.topK) }

    // …then exact re-scoring of just the winners on the full APT.
    val exact = timer.time("F-score Calc.") {
      val cov = table.coverage(picked.map(_._1))
      picked.zip(cov).map { case ((p, qu), c) =>
        Explanation(jg, p, Metrics.quality(c, n1, n2, qu.primary))
      }
    }
    MineResult(exact.sortBy(-_.fscore), stats)
  }

  /** Quality of patterns on `table` for both orientations. */
  def evaluate(table: Metrics.Table, patterns: Seq[Pattern.Pattern], n1: Long, n2: Long): Seq[(Pattern.Pattern, Metrics.Quality, Metrics.Quality)] = {
    val cov = table.coverage(patterns)
    patterns.zip(cov).map { case (p, c) =>
      (p, Metrics.quality(c, n1, n2, "t1"), Metrics.quality(c, n1, n2, "t2"))
    }
  }

  /** Domain fragment boundaries (Section 3.4): the exact
    * λ_#frag-quantiles of each numeric attribute, the value of rank
    * ⌈p·n⌉ among the n rows with no null or NaN in any of
    * `numericAttrs`, for p = 1/λ_#frag, …, (λ_#frag−1)/λ_#frag.
    * Duplicate boundaries collapse; an attribute gets none when no row
    * is left.
    */
  def numericFragments(table: Metrics.Table, numericAttrs: Seq[String], nFragments: Int): Map[String, Seq[Double]] = {
    val cols = numericAttrs.map(table.doubles).toArray
    val keep = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < table.rows) {
      var j = 0
      while (j < cols.length && !cols(j)(i).isNaN) j += 1
      if (j == cols.length) keep.addOne(i)
      i += 1
    }
    val kept = keep.result()
    numericAttrs.zip(cols).map { case (a, c) =>
      val sorted = new Array[Double](kept.length)
      var r = 0
      while (r < kept.length) { sorted(r) = c(kept(r)); r += 1 }
      java.util.Arrays.sort(sorted)
      a -> (if (sorted.isEmpty) Nil
            else (1 until nFragments).map(f => sorted(math.ceil(f.toDouble / nFragments * sorted.length).toInt - 1)).distinct)
    }.toMap
  }

  /** [[numericFragments]] over `apt` (a frame with `pt_id`, `grp` and
    * `numericAttrs`), collected to the driver first.
    */
  def numericFragments(apt: DataFrame, numericAttrs: Seq[String], nFragments: Int): Map[String, Seq[Double]] =
    if (numericAttrs.isEmpty) Map.empty
    else numericFragments(Metrics.Table.collect(apt, numericAttrs), numericAttrs, nFragments)

  /** Greedy diverse selection by wscore (Section 3.5): k rounds, each
    * picking the first candidate of the highest wscore, F plus the lowest
    * diversity to the picks so far, in (−F, render, primary) order, one
    * candidate per (pattern, primary).
    *
    * A lazy greedy (Minoux, "Accelerated greedy algorithms…", 1978;
    * Leskovec et al., "CELF", KDD 2007) with the same picks. Candidates are
    * scanned in F order, stably, and a run of equal F is put in (render,
    * primary) order only where two of its candidates tie for the best
    * wscore: patterns are rendered only for that. Each candidate keeps its
    * lowest diversity to the picks it has been compared with, brought up
    * to date when a scan reaches it, and F plus that minimum bounds its
    * wscore from above, as the minimum only falls. Diversity is at most 1,
    * so a round's scan stops at the first candidate with F + 1 ≤ the best
    * wscore so far (F ≤ it in the first round), unless it ties in the best
    * one's run: no later one can beat the first maximum.
    */
  def selectDiverse(cands: Seq[(Pattern.Pattern, Metrics.Quality)], k: Int): Seq[(Pattern.Pattern, Metrics.Quality)] = {
    // The later duplicates of a (pattern, primary) render alike, so the
    // first one in F order is the first one in (−F, render, primary) order.
    val seen = mutable.HashSet.empty[(Pattern.Pattern, String)]
    val pool = cands.sortBy(-_._2.fscore).filter { case (p, qu) => seen.add((p, qu.primary)) }.toArray
    val f = pool.map(_._2.fscore)
    val run = new Array[Int](pool.length) // the first candidate of each one's run of equal F
    for (i <- 1 until pool.length) run(i) = if (f(i) == f(i - 1)) run(i - 1) else i
    val rendered = new Array[String](pool.length)
    def render(i: Int): String = { if (rendered(i) == null) rendered(i) = pool(i)._1.render; rendered(i) }
    // Whether i comes before j in (render, primary) order, for i and j of
    // one run with i after j in F order.
    def before(i: Int, j: Int): Boolean = {
      val c = render(i).compareTo(render(j))
      c < 0 || c == 0 && pool(i)._2.primary < pool(j)._2.primary
    }

    // Candidate i's lowest diversity to the first compared(i) picks, +∞ for none.
    val minD = Array.fill(pool.length)(Double.PositiveInfinity)
    val compared = new Array[Int](pool.length)
    val taken = new Array[Boolean](pool.length)
    val picks = mutable.ArrayBuffer.empty[(Pattern.Pattern, Metrics.Quality)]
    val picked = mutable.ArrayBuffer.empty[Map[String, Pattern.Pred]]
    while (picks.size < k && picks.size < pool.length) {
      // Before the first pick wscore is F itself.
      val slack = if (picks.isEmpty) 0.0 else 1.0
      var best = -1
      var bestW = 0.0
      // Whether candidate i, whose wscore is at most `bound`, cannot beat the best.
      def beaten(bound: Double, i: Int): Boolean = bound < bestW || bound == bestW && run(i) != run(best)
      var i = 0
      while (i < pool.length && (best < 0 || !beaten(f(i) + slack, i))) {
        if (!taken(i) && (best < 0 || !beaten(f(i) + minD(i), i))) {
          while (compared(i) < picks.size) {
            minD(i) = math.min(minD(i), Pattern.diversity(pool(i)._1, picked(compared(i))))
            compared(i) += 1
          }
          val w = if (picks.isEmpty) f(i) else f(i) + minD(i)
          if (best < 0 || w > bestW || w == bestW && run(i) == run(best) && before(i, best)) { best = i; bestW = w }
        }
        i += 1
      }
      taken(best) = true
      picks += pool(best)
      picked += Pattern.byAttr(pool(best)._1)
    }
    picks.toSeq
  }
}
