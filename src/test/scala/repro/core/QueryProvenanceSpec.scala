package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.data.{Mimic, Nba}

/** Provenance-table substrate tests (Section 2.1): query results are
  * oracle-checked against DuckDB, and PT(Q, D, t) partitions are verified
  * per Definition 1.
  */
class QueryProvenanceSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private lazy val mimic = TestData.mimic(spark)

  test("Q_nba4 (GSW wins) matches DuckDB") {
    val res = Query.run(nba, Nba.qNba4)
    Oracle.assertEquivalent(
      res,
      """SELECT s.season_name AS prov_s_season_name, count(*) AS win
        |FROM team t, game g, season s
        |WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW'
        |GROUP BY s.season_name""".stripMargin,
      "team" -> nba("team"), "game" -> nba("game"), "season" -> nba("season"))
  }

  test("Q_nba1 (Green avg points) matches DuckDB") {
    val res = Query.run(nba, Nba.qNba1)
    Oracle.assertEquivalent(
      res,
      """SELECT s.season_name AS prov_s_season_name, avg(CAST(pgs.points AS DOUBLE)) AS avg_pts
        |FROM player p, player_game_stats pgs, game g, season s
        |WHERE p.player_id = pgs.player_id AND g.game_date = pgs.game_date
        |  AND g.home_id = pgs.home_id AND s.season_id = g.season_id
        |  AND p.player_name = 'Draymond Green'
        |GROUP BY s.season_name""".stripMargin,
      "player" -> nba("player"), "player_game_stats" -> nba("player_game_stats"),
      "game" -> nba("game"), "season" -> nba("season"))
  }

  test("Q_nba2 (GSW avg assists) matches DuckDB") {
    val res = Query.run(nba, Nba.qNba2)
    Oracle.assertEquivalent(
      res,
      """SELECT s.season_name AS prov_s_season_name, avg(CAST(tgs.assists AS DOUBLE)) AS avg_ast
        |FROM team_game_stats tgs, game g, team t, season s
        |WHERE s.season_id = g.season_id AND tgs.game_date = g.game_date
        |  AND tgs.home_id = g.home_id AND tgs.team_id = t.team_id AND t.team = 'GSW'
        |GROUP BY s.season_name""".stripMargin,
      "team_game_stats" -> nba("team_game_stats"), "game" -> nba("game"),
      "team" -> nba("team"), "season" -> nba("season"))
  }

  test("Q_mimic2 (death rate by insurance) matches DuckDB") {
    val res = Query.run(mimic, Mimic.qMimicInsurance)
    Oracle.assertEquivalent(
      res,
      """SELECT insurance AS prov_a_insurance,
        |       1.0*SUM(CAST(hospital_expire_flag AS INT))/COUNT(*) AS death_rate
        |FROM admissions GROUP BY insurance""".stripMargin,
      "admissions" -> mimic("admissions"))
  }

  test("Q_mimic1 (death rate by chapter) matches DuckDB") {
    val res = Query.run(mimic, Mimic.qMimic1)
    Oracle.assertEquivalent(
      res,
      """SELECT d.chapter AS prov_d_chapter,
        |       1.0*SUM(CAST(a.hospital_expire_flag AS INT))/COUNT(*) AS death_rate
        |FROM admissions a, diagnoses d WHERE a.hadm_id = d.hadm_id
        |GROUP BY d.chapter""".stripMargin,
      "admissions" -> mimic("admissions"), "diagnoses" -> mimic("diagnoses"))
  }

  test("Q_mimic3 (icustays by los_group) matches DuckDB") {
    val res = Query.run(mimic, Mimic.qMimic3)
    Oracle.assertEquivalent(
      res,
      "SELECT los_group AS prov_i_los_group, count(*) AS cnt FROM icustays GROUP BY los_group",
      "icustays" -> mimic("icustays"))
  }

  test("Q_mimic5 (procedures by ethnicity) matches DuckDB") {
    val res = Query.run(mimic, Mimic.qMimic5)
    Oracle.assertEquivalent(
      res,
      """SELECT pai.ethnicity AS prov_pai_ethnicity, count(*) AS cnt
        |FROM patients_admit_info pai, procedures p
        |WHERE p.hadm_id = pai.hadm_id AND p.subject_id = pai.subject_id
        |GROUP BY pai.ethnicity""".stripMargin,
      "patients_admit_info" -> mimic("patients_admit_info"), "procedures" -> mimic("procedures"))
  }

  // ---- provenance-table structure ----------------------------------------

  private lazy val uq1 = Nba.seasonQuestion(Nba.qNba4, "2015-16", "2012-13")
  private lazy val pt = Query.provenanceTable(nba, Nba.qNba4, uq1).cache()

  test("PT row set equals the filtered join (why-provenance, Definition 1)") {
    val provCols = pt.columns.filterNot(Set("pt_id", "grp")).toSeq
    Oracle.assertEquivalent(
      pt.select(provCols.map(col): _*),
      """SELECT t.team_id AS prov_t_team_id, t.team AS prov_t_team,
        |       g.game_date AS prov_g_game_date, g.home_id AS prov_g_home_id,
        |       g.away_id AS prov_g_away_id, g.winner_id AS prov_g_winner_id,
        |       g.season_id AS prov_g_season_id, g.home_points AS prov_g_home_points,
        |       g.away_points AS prov_g_away_points,
        |       g.home_possessions AS prov_g_home_possessions,
        |       g.away_possessions AS prov_g_away_possessions,
        |       s.season_id AS prov_s_season_id, s.season_name AS prov_s_season_name,
        |       s.season_type AS prov_s_season_type
        |FROM team t, game g, season s
        |WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW'""".stripMargin,
      "team" -> nba("team"), "game" -> nba("game"), "season" -> nba("season"))
  }

  test("pt_id is unique") {
    assert(pt.select("pt_id").distinct().count() == pt.count())
  }
  test("grp partitions PT by the question tuples") {
    val t1 = pt.filter(col("grp") === "t1")
    assert(t1.count() > 0)
    assert(t1.filter(col("prov_s_season_name") =!= "2015-16").count() == 0)
    val t2 = pt.filter(col("grp") === "t2")
    assert(t2.count() > 0)
    assert(t2.filter(col("prov_s_season_name") =!= "2012-13").count() == 0)
  }
  test("rows outside the question are grp=other") {
    val other = pt.filter(col("grp") === "other")
    assert(other.filter(col("prov_s_season_name").isin("2015-16", "2012-13")).count() == 0)
  }
  test("questionProvenance keeps only t1/t2 rows") {
    val qp = Query.questionProvenance(nba, Nba.qNba4, uq1)
    assert(qp.filter(col("grp") === "other").count() == 0)
    assert(qp.count() == pt.filter(col("grp").isin("t1", "t2")).count())
  }
  test("single-point questions label everything else t2 (Section 2.4)") {
    val sp = Query.SinglePoint(Map("prov_s_season_name" -> "2015-16"))
    val ptSp = Query.provenanceTable(nba, Nba.qNba4, sp)
    assert(ptSp.filter(col("grp") === "other").count() == 0)
    assert(ptSp.filter(col("grp") === "t2").count() ==
      pt.filter(col("prov_s_season_name") =!= "2015-16").count())
  }
  test("PT sizes match the aggregate (wins = |PT(t)| for count(*))") {
    val wins = Query.run(nba, Nba.qNba4).filter(col("prov_s_season_name") === "2015-16")
      .select("win").head().getLong(0)
    assert(pt.filter(col("grp") === "t1").count() == wins)
  }
  test("group-by columns are excluded from pattern attributes") {
    val cols = Apt.patternColumns(pt, Nba.qNba4)
    assert(!cols.contains("prov_s_season_name"))
    assert(!cols.contains("pt_id") && !cols.contains("grp"))
  }
  test("toSql renders a runnable single-block query") {
    val sql = Nba.qNba4.toSql
    assert(sql.contains("GROUP BY s.season_name") && sql.contains("count(*)"))
  }
  test("toSql escapes single quotes in filter values") {
    import spark.implicits._
    val player = Seq((1, "O'Brien", "BOS"), (2, "O'Brien", "NYK"), (3, "Smith", "BOS"))
      .toDF("player_id", "player_name", "team")
    val db = Schema.Database(Map("player" -> player), Schema.SchemaGraph(Map.empty, Nil))
    val q = Query.QuerySpec("obrien", Seq("player" -> "p"), Nil,
      Seq(Query.Filter("p", "player_name", "O'Brien")), Seq("p" -> "team"), Query.CountStar("cnt"))
    Oracle.assertEquivalent(Query.run(db, q), q.toSql, "player" -> player)
  }
  // ---- malformed user questions ------------------------------------------

  private def rejected(uq: Query.UserQuestion): String =
    intercept[IllegalArgumentException] { Query.provenanceTable(nba, Nba.qNba4, uq) }.getMessage

  test("a question key that is not a group-by column is rejected") {
    val msg = rejected(Query.TwoPoint(Map("prov_s_season_type" -> "playoffs"), Map("prov_s_season_name" -> "2012-13")))
    assert(msg.contains("prov_s_season_type"))
  }
  test("a question whose t1 equals t2 is rejected") {
    val t = Map("prov_s_season_name" -> "2015-16")
    assert(rejected(Query.TwoPoint(t, t)).contains("same tuple Map(prov_s_season_name -> 2015-16)"))
  }
  test("a question with an empty tuple is rejected") {
    assert(rejected(Query.SinglePoint(Map.empty)).contains("t1 is empty"))
    assert(rejected(Query.TwoPoint(Map("prov_s_season_name" -> "2015-16"), Map.empty)).contains("t2 is empty"))
  }

  test("relOfAlias resolves and rejects unknown aliases") {
    assert(Nba.qNba4.relOfAlias("g") == "game")
    intercept[IllegalArgumentException] { Nba.qNba4.relOfAlias("zz") }
  }
}
