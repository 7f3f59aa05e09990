package repro.study

import repro.core._
import repro.core.Schema._
import repro.data.Nba.pgsPlayerJg
import scala.util.Random

/** User-study harness (paper Section 6.3, Tables 7/8/9).
  *
  * The paper's Tables 8/9 aggregate ratings from 20 human participants —
  * data we cannot collect here. We reproduce the *computable* rows
  * exactly (each explanation's F-score/recall/precision under our
  * metrics) and substitute the human panel with simulated raters whose
  * ratings are a noisy monotone function of explanation quality, with a
  * "domain knowledge" cohort that is less noisy (the paper found experts
  * agree more with the ranking). See DESIGN.md for the substitution note.
  */
object UserStudy {

  /** One of the ten fixed study explanations (Table 7), expressed over our
    * synthetic NBA schema. `group` is "prov" (Expl 1–5) or "cajade"
    * (Expl 6–10).
    */
  final case class StudyExplanation(
      label: String, group: String, jg: JoinGraph, pattern: Pattern.Pattern, primary: String)

  final case class Rated(expl: StudyExplanation, quality: Metrics.Quality, ratings: Vector[Double], fans: Vector[Boolean]) {
    def avgAll: Double = ratings.sum / ratings.size
    def stdev: Double = {
      val m = avgAll
      math.sqrt(ratings.map(r => (r - m) * (r - m)).sum / ratings.size)
    }
    def avg(fan: Boolean): Double = {
      val rs = ratings.zip(fans).filter(_._2 == fan).map(_._1)
      if (rs.isEmpty) 0.0 else rs.sum / rs.size
    }
  }

  import Pattern.{Pred, OpEq, OpLe, OpGe, CatV, NumV}

  private def pat(ps: Pred*): Pattern.Pattern = Pattern.Pattern.of(ps: _*)

  /** Join graph PT(g) – team_game_stats(1) for Q_nba4. */
  private[repro] val tgsJg = JoinGraph(
    Vector(JGNode(0, "PT"), JGNode(1, "team_game_stats")),
    Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("game_date" -> "game_date", "home_id" -> "home_id")))))

  /** The ten study explanations for UQ₁ (2015-16 = t1 vs 2012-13 = t2),
    * structural analogues of Table 7 over the synthetic league.
    */
  val explanations: Seq[StudyExplanation] = Seq(
    StudyExplanation("Expl1", "prov", JoinGraph.empty,
      pat(Pred("prov_g_away_points", OpGe, NumV(105))), "t1"),
    StudyExplanation("Expl2", "prov", JoinGraph.empty,
      pat(Pred("prov_s_season_type", OpEq, CatV("regular season"))), "t1"),
    StudyExplanation("Expl3", "prov", JoinGraph.empty,
      pat(Pred("prov_g_away_points", OpGe, NumV(99)), Pred("prov_g_away_possessions", OpGe, NumV(102))), "t1"),
    StudyExplanation("Expl4", "prov", JoinGraph.empty,
      pat(Pred("prov_g_home_points", OpGe, NumV(105))), "t1"),
    StudyExplanation("Expl5", "prov", JoinGraph.empty,
      pat(Pred("prov_g_home_points", OpLe, NumV(106)), Pred("prov_g_home_possessions", OpLe, NumV(100))), "t1"),
    StudyExplanation("Expl6", "cajade", pgsPlayerJg,
      pat(Pred("a2_player_name", OpEq, CatV("Stephen Curry")),
          Pred("a1_minutes", OpLe, NumV(38)), Pred("a1_usage", OpGe, NumV(25))), "t1"),
    StudyExplanation("Expl7", "cajade", pgsPlayerJg,
      pat(Pred("a2_player_name", OpEq, CatV("Draymond Green")), Pred("a1_minutes", OpGe, NumV(15))), "t1"),
    StudyExplanation("Expl8", "cajade", pgsPlayerJg,
      pat(Pred("a2_player_name", OpEq, CatV("Jarrett Jack"))), "t2"),
    StudyExplanation("Expl9", "cajade", tgsJg,
      pat(Pred("a1_assists", OpGe, NumV(27))), "t1"),
    StudyExplanation("Expl10", "cajade", pgsPlayerJg,
      pat(Pred("a2_player_name", OpEq, CatV("Marreese Speights")), Pred("a1_points", OpGe, NumV(18))), "t1"),
  )

  /** Computes exact quality metrics for every study explanation over the
    * APTs `explain` builds for the question.
    */
  def evaluate(db: Database, q: Query.QuerySpec, uq: Query.UserQuestion,
               expls: Seq[StudyExplanation] = explanations): Seq[(StudyExplanation, Metrics.Quality)] = {
    val apts = Join.Apts(db, q, uq, Params.default)
    // One table per graph: `apts(jg)` gathers its columns on every call.
    val tables = expls.map(_.jg).distinct.map(jg => jg -> apts(jg)).toMap
    expls.map { e =>
      val Seq(c) = tables(e.jg).coverage(Seq(e.pattern))
      e -> Metrics.quality(c, apts.sizes.n1, apts.sizes.n2, e.primary)
    }
  }

  /** Simulated rater panel: `nRaters` raters (first `nFans` with domain
    * knowledge) rate each explanation 1–5 as a noisy monotone function of
    * its F-score; fans have less noise and slightly reward player-level
    * context, mirroring the paper's observed expert preference.
    */
  def simulateRatings(qualities: Seq[(StudyExplanation, Metrics.Quality)],
                      nRaters: Int = 20, nFans: Int = 5, seed: Long = 5): Seq[Rated] = {
    val rnd = new Random(seed)
    val fans = Vector.tabulate(nRaters)(_ < nFans)
    qualities.map { case (e, qu) =>
      val ratings = Vector.tabulate(nRaters) { r =>
        val fan = fans(r)
        val sd = if (fan) 0.55 else 0.85
        val bonus = if (fan && e.group == "cajade") 0.25 else 0.0
        val raw = 1.0 + 3.6 * qu.fscore + bonus + rnd.nextGaussian() * sd
        math.max(1.0, math.min(5.0, math.round(raw).toDouble))
      }
      Rated(e, qu, ratings, fans)
    }
  }

  /** Table 9 aggregates: average Kendall-tau distance and NDCG of ranking
    * a method's explanations by a metric against each rater's ratings.
    * `dropWorst` removes the explanation with the largest rating stdev
    * (the paper's "-1" columns).
    */
  final case class RankQuality(kendall: Double, ndcg: Double)

  def rankQuality(rated: Seq[Rated], metric: Metrics.Quality => Double,
                  raterFilter: Int => Boolean, dropWorst: Boolean): RankQuality = {
    val items0 = rated
    val items = if (dropWorst && items0.size > 1) {
      val worst = items0.maxBy(_.stdev)
      items0.filterNot(_ eq worst)
    } else items0
    val scores = items.map(r => metric(r.quality))
    val raters = items.head.ratings.indices.filter(raterFilter)
    val ks = raters.map(r => Ranking.kendallTauDistance(scores, items.map(_.ratings(r))).toDouble)
    val ns = raters.map(r => Ranking.ndcg(scores, items.map(_.ratings(r))))
    RankQuality(ks.sum / ks.size, ns.sum / ns.size)
  }
}
