package repro.core

import org.apache.spark.sql.DataFrame
import repro.ml.LocalSample

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

    val all = scala.collection.mutable.ArrayBuffer.empty[(Pattern.Pattern, Metrics.Quality)]
    catQuality.foreach { case (p, q1, q2) => all += ((p, q1)) += ((p, q2)) }

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
      evaluated.foreach { case (p, q1, q2) => all += ((p, q1)) += ((p, q2)) }
      frontier = evaluated
        .filter { case (_, q1, q2) => q1.recall >= params.recallThreshold || q2.recall >= params.recallThreshold }
        .sortBy { case (_, q1, q2) => -math.max(q1.fscore, q2.fscore) }
        .take(params.maxFrontier)
        .map(_._1)
      level += 1
    }

    // Diverse top-k (Section 3.5) on the estimated scores. Patterns that
    // cover the entire provenance of BOTH tuples separate nothing — they
    // are tautologies like `flag<=1` — and are excluded.
    val candidates = all.toSeq
      .filter { case (p, qu) => !p.isEmpty && qu.recall >= params.recallThreshold }
      .filterNot { case (_, qu) =>
        qu.support1._1 == qu.support1._2 && qu.support2._1 == qu.support2._2 }
    val picked = selectDiverse(candidates, params.topK)

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
    val cols = numericAttrs.map(table.doubles)
    val kept = (0 until table.rows).filter(i => cols.forall(c => !c(i).isNaN)).toArray
    numericAttrs.zip(cols).map { case (a, c) =>
      val sorted = kept.map(c)
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

  /** Greedy diverse selection by wscore (Section 3.5). */
  def selectDiverse(cands: Seq[(Pattern.Pattern, Metrics.Quality)], k: Int): Seq[(Pattern.Pattern, Metrics.Quality)] = {
    val pool = scala.collection.mutable.ArrayBuffer(
      cands.sortBy { case (p, qu) => (-qu.fscore, p.render, qu.primary) }
        .distinctBy { case (p, qu) => (p, qu.primary) }: _*)
    val out = scala.collection.mutable.ArrayBuffer.empty[(Pattern.Pattern, Metrics.Quality)]
    while (out.size < k && pool.nonEmpty) {
      val best = pool.maxBy { case (p, qu) => Pattern.wscore(qu.fscore, p, out.map(_._1).toSeq) }
      out += best
      pool -= best
    }
    out.toSeq
  }
}
