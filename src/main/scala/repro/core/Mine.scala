package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ml.LocalSample

/** MineAPT (paper Algorithm 1): top-k pattern mining over one augmented
  * provenance table.
  *
  * Phases: (i) sample + feature selection, (ii) LCA candidates over
  * categorical attributes, (iii) recall filtering with the monotonicity
  * pruning of Proposition 3.1, (iv) numeric refinement over domain
  * fragments, (v) diverse top-k by wscore. Candidate evaluation during
  * mining runs on a pt_id-sampled APT (λ_F1-samp); the returned top-k is
  * re-scored exactly on the full APT so reported supports are precise.
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

  /** Mines the top-k patterns for join graph `jg` over the provenance `pt`
    * of the user question (a frame with prov_ columns, `pt_id`, `grp`).
    */
  def mineJoinGraph(db: Schema.Database, q: Query.QuerySpec, pt: DataFrame,
                    jg: Schema.JoinGraph, params: Params,
                    timer: StepTimer = new StepTimer): MineResult = {
    val (apt, aptRows) = timer.time("Materialize APTs") {
      val a = Apt.materialize(db, q, pt, jg).cache()
      (a, a.count())
    }
    try {
      val attrCols = Apt.patternColumns(apt, q)
      val stats = AptStats(aptRows, attrCols.size)
      val (n1, n2) = Metrics.provSizes(pt)
      if (n1 == 0 || n2 == 0) return MineResult(Nil, stats)

      // Sampling for F-score calculation: a deterministic pt_id-hash sample
      // of APT rows *per PT tuple*, so per-tuple coverage stays well defined.
      val (evalApt, en1, en2) = timer.time("Sampling for F1") {
        if (params.f1SampleRate >= 1.0) (apt, n1, n2)
        else {
          val cond = pmod(xxhash64(col("pt_id"), lit(params.seed)), lit(10000)) <
            lit((params.f1SampleRate * 10000).toInt)
          // No cache: `apt` is cached and the filter is one hash per row.
          val (s1, s2) = Metrics.provSizes(pt.filter(cond))
          if (s1 == 0 || s2 == 0) (apt, n1, n2) else (apt.filter(cond), s1, s2)
        }
      }

      val sample = timer.time("Feature Selection") {
        LocalSample.collect(apt, attrCols, params.patSampleRate, params.patSampleCap, params.seed)
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
        evaluate(evalApt, catCandidates, en1, en2)
      }
      val promoted: Seq[Pattern.Pattern] = catQuality
        .filter { case (_, q1, q2) => q1.recall >= params.recallThreshold || q2.recall >= params.recallThreshold }
        .sortBy { case (_, q1, q2) => -math.max(q1.recall, q2.recall) }
        .take(params.kCat)
        .map(_._1)

      val fragments: Map[String, Seq[Double]] = timer.time("Refine Patterns") {
        numericFragments(evalApt, selected.numeric, params.nFragments)
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
          evaluate(evalApt, expansions, en1, en2)
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
        val cov = Metrics.coverage(apt, picked.map(_._1))
        picked.zip(cov).map { case ((p, qu), c) =>
          Explanation(jg, p, Metrics.quality(c, n1, n2, qu.primary))
        }
      }
      MineResult(exact.sortBy(-_.fscore), stats)
    } finally {
      apt.unpersist()
    }
  }

  /** Batched quality evaluation of patterns for both orientations. */
  def evaluate(apt: DataFrame, patterns: Seq[Pattern.Pattern], n1: Long, n2: Long): Seq[(Pattern.Pattern, Metrics.Quality, Metrics.Quality)] = {
    val cov = Metrics.coverage(apt, patterns)
    patterns.zip(cov).map { case (p, c) =>
      (p, Metrics.quality(c, n1, n2, "t1"), Metrics.quality(c, n1, n2, "t2"))
    }
  }

  /** Domain fragment boundaries (Section 3.4): λ_#frag-quantile boundaries
    * per numeric attribute, computed in one approxQuantile pass.
    */
  def numericFragments(apt: DataFrame, numericAttrs: Seq[String], nFragments: Int): Map[String, Seq[Double]] = {
    if (numericAttrs.isEmpty) return Map.empty
    val probs = (1 until nFragments).map(_.toDouble / nFragments).toArray
    val qs = apt.na.drop(numericAttrs).stat.approxQuantile(numericAttrs.toArray, probs, 0.01)
    numericAttrs.zip(qs.map(_.toSeq.distinct)).toMap
  }

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
