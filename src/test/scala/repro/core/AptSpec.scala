package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.core.Schema._
import repro.data.Nba

/** APT materialization tests (Definition 4), oracle-checked against the
  * equivalent DuckDB join.
  */
class AptSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private lazy val q = Nba.qNba4
  private lazy val uq = Nba.seasonQuestion(q, "2015-16", "2012-13")
  private lazy val pt = Query.questionProvenance(nba, q, uq).cache()

  private val salaryJg = JoinGraph(
    Vector(JGNode(0, "PT"), JGNode(1, "player_salary"), JGNode(2, "player")),
    Vector(
      JGEdge(0, 1, Some("s"), JoinCond(Seq("season_id" -> "season_id"))),
      JGEdge(1, 2, None, JoinCond(Seq("player_id" -> "player_id")))))

  private val teamJg = JoinGraph(
    Vector(JGNode(0, "PT"), JGNode(1, "team")),
    Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("away_id" -> "team_id")))))

  test("empty join graph Ω₀ returns PT unchanged") {
    val apt = Apt.materialize(nba, q, pt, JoinGraph.empty)
    assert(apt.columns.toSeq == pt.columns.toSeq)
    assert(apt.count() == pt.count())
  }

  test("single-edge APT equals the DuckDB join (team context)") {
    val apt = Apt.materialize(nba, q, pt, teamJg)
    Oracle.assertEquivalent(
      apt.groupBy("prov_g_game_date", "prov_g_home_id", "a1_team").agg(count(lit(1)).as("n")),
      """SELECT g.game_date AS prov_g_game_date, g.home_id AS prov_g_home_id,
        |       ctx.team AS a1_team, count(*) AS n
        |FROM team t, game g, season s, team ctx
        |WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW'
        |  AND s.season_name IN ('2015-16','2012-13') AND g.away_id = ctx.team_id
        |GROUP BY g.game_date, g.home_id, ctx.team""".stripMargin,
      "team" -> nba("team"), "game" -> nba("game"), "season" -> nba("season"))
  }

  test("two-edge path APT joins transitively (salary → player)") {
    val apt = Apt.materialize(nba, q, pt, salaryJg).cache()
    // Every row's a1_player_id equals a2_player_id by the edge condition.
    assert(apt.filter(col("a1_player_id") =!= col("a2_player_id")).count() == 0)
    // And season ids align with the PT season.
    assert(apt.filter(col("a1_season_id") =!= col("prov_s_season_id")).count() == 0)
    apt.unpersist()
  }

  test("context columns get the a<i>_ prefix; duplicates are disambiguated") {
    val apt = Apt.materialize(nba, q, pt, salaryJg)
    assert(apt.columns.contains("a1_salary"))
    assert(apt.columns.contains("a2_player_name"))
    assert(apt.columns.contains("a1_player_id") && apt.columns.contains("a2_player_id"))
  }

  test("parallel edge between existing nodes becomes a filter") {
    // PT—team on away_id plus a second edge PT—team on winner_id restricts
    // the context team to be both the away team and the winner.
    val jg = JoinGraph(
      teamJg.nodes,
      teamJg.edges :+ JGEdge(0, 1, Some("g"), JoinCond(Seq("winner_id" -> "team_id"))))
    val apt = Apt.materialize(nba, q, pt, jg)
    assert(apt.filter(col("prov_g_away_id") =!= col("prov_g_winner_id")).count() == 0)
    // GSW won every PT game, so the context team is always GSW here.
    assert(apt.filter(col("a1_team") =!= "GSW").count() == 0)
  }

  test("APT multiplies provenance rows by join fan-out, never drops grp") {
    val apt = Apt.materialize(nba, q, pt, salaryJg)
    val grps = apt.select("grp").distinct().collect().map(_.getString(0)).toSet
    assert(grps.subsetOf(Set("t1", "t2")) && grps.nonEmpty)
  }

  test("self-join relations may appear as two distinct context nodes") {
    val jg = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "lineup_game_stats"), JGNode(2, "lineup"), JGNode(3, "lineup_player")),
      Vector(
        JGEdge(0, 1, Some("g"), JoinCond(Seq("game_date" -> "game_date", "home_id" -> "home_id"))),
        JGEdge(1, 2, None, JoinCond(Seq("lineup_id" -> "lineup_id"))),
        JGEdge(2, 3, None, JoinCond(Seq("lineup_id" -> "lineup_id")))))
    val apt = Apt.materialize(nba, q, pt, jg)
    assert(apt.columns.contains("a3_player_id"))
    assert(apt.count() > pt.count()) // 5 players per lineup fan-out
  }

  test("patternColumns drops bookkeeping and group-by columns") {
    val apt = Apt.materialize(nba, q, pt, teamJg)
    val cols = Apt.patternColumns(apt, q)
    assert(!cols.contains("pt_id") && !cols.contains("grp") && !cols.contains("prov_s_season_name"))
    assert(cols.contains("a1_team"))
  }
}
