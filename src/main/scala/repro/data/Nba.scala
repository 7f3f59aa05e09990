package repro.data

import org.apache.spark.sql.SparkSession
import repro.core.Query._
import repro.core.Schema._
import scala.util.Random

/** Synthetic NBA database (paper Section 5 "Datasets", schema of Figure 5).
  *
  * The paper scrapes nba.com; that data is not available here, so we
  * generate a deterministic synthetic league with the *planted effects*
  * behind the paper's case-study explanations (Table 4): GSW's win rate
  * explodes in 2014-17, Curry's scoring peaks in 2015-16, Green's salary
  * jumps in 2016-17, LeBron moves CLE→MIA in 2010, Butler's usage and
  * salary jump in 2014-15, GSW's assists jump in 2014-15, and the
  * Green/Thompson lineup logs heavy minutes from 2014-15 on. The scale
  * factor multiplies games per team-season (sf=1 ≈ an 82-game season).
  */
object Nba {

  val seasons: Vector[String] = Vector(
    "2009-10", "2010-11", "2011-12", "2012-13", "2013-14",
    "2014-15", "2015-16", "2016-17", "2017-18", "2018-19")

  val teams: Vector[String] = Vector("GSW", "CLE", "MIA", "CHI", "DET", "NOP", "IND", "SAS", "LAL", "PHI")

  /** GSW season strength calibrated to the paper's win counts
    * (26,36,23,47,51,67,73,67,58,57 out of 82).
    */
  private val gswStrength = Vector(0.32, 0.44, 0.28, 0.57, 0.62, 0.82, 0.89, 0.82, 0.71, 0.70)

  private def strength(team: String, s: Int): Double = team match {
    case "GSW" => gswStrength(s)
    case "CLE" => if (s == 0) 0.74 else if (s >= 5 && s <= 8) 0.68 else 0.45
    case "MIA" => if (s >= 1 && s <= 4) 0.72 else 0.50
    case "CHI" => if (s >= 5) 0.55 else 0.48
    case "SAS" => 0.65
    case _     => 0.42
  }

  // ---- rows ---------------------------------------------------------------

  final case class GameRow(game_date: String, home_id: Int, away_id: Int, winner_id: Int,
                           season_id: Int, home_points: Int, away_points: Int,
                           home_possessions: Int, away_possessions: Int)
  final case class TeamRow(team_id: Int, team: String)
  final case class SeasonRow(season_id: Int, season_name: String, season_type: String)
  final case class PlayerRow(player_id: Int, player_name: String)
  final case class SalaryRow(player_id: Int, season_id: Int, salary: Double)
  final case class PlayForRow(player_id: Int, team_id: Int, date_start: String, date_end: String)
  final case class LineupRow(lineup_id: Int, team_id: Int)
  final case class LineupPlayerRow(lineup_id: Int, player_id: Int)
  final case class LineupGameStatsRow(lineup_id: Int, game_date: String, home_id: Int,
                                      mp: Double, tmposs: Int, oppo_tmposs: Int)
  final case class TeamGameStatsRow(game_date: String, home_id: Int, team_id: Int,
                                    points: Int, offposs: Int, assists: Int, assistpoints: Double,
                                    fg_two_m: Int, fg_two_pct: Double, fg_three_m: Int, fg_three_pct: Double,
                                    fg_three_apct: Double, rebounds: Int, offrebounds: Int, defrebounds: Int,
                                    nonputbacksassisted_two_spct: Double, offatrimreboundpct: Double,
                                    efgpct: Double, tspct: Double)
  final case class PlayerGameStatsRow(player_id: Int, game_date: String, home_id: Int,
                                      points: Int, minutes: Double, usage: Double,
                                      tspct: Double, efgpct: Double, assists: Int,
                                      assisted_two_spct: Double, deflongmidrangereboundpct: Double)

  /** Star players with season-indexed placements and stat plants. */
  private final case class Star(
      name: String,
      teamOf: Int => Option[String],        // season index -> team (None = not in league)
      ptsMean: Vector[Double],
      minutes: Vector[Double],
      usage: Vector[Double],
      salary: Vector[Double],               // dollars per season
  )

  private val stars: Vector[Star] = Vector(
    Star("Stephen Curry", _ => Some("GSW"),
      Vector(17, 18, 15, 22, 23, 24, 30, 25, 26, 27),
      Vector(35, 34, 32, 38, 37, 33, 34, 33, 33, 33),
      Vector(22, 23, 23, 24, 25, 27, 31, 28, 29, 29),
      Vector(2.9e6, 3.1e6, 3.9e6, 3.9e6, 9.9e6, 10.6e6, 11.4e6, 12.1e6, 34.7e6, 37.5e6)),
    Star("Klay Thompson", s => if (s >= 2) Some("GSW") else None,
      Vector(0, 0, 12, 17, 18, 21, 22, 22, 20, 21),
      Vector(0, 0, 24, 35, 35, 32, 33, 34, 34, 34),
      Vector(0, 0, 18, 22, 23, 24, 25, 25, 24, 24),
      Vector(0, 0, 2.2e6, 2.3e6, 2.4e6, 3.1e6, 15.5e6, 16.6e6, 17.8e6, 19.0e6)),
    Star("Draymond Green", s => if (s >= 3) Some("GSW") else None,
      Vector(0, 0, 0, 2.9, 6.2, 11.7, 14.0, 10.2, 11.0, 7.4),
      Vector(0, 0, 0, 13, 22, 32, 33, 33, 32, 31),
      Vector(0, 0, 0, 12, 14, 17, 19, 15, 16, 14),
      Vector(0, 0, 0, 0.85e6, 0.9e6, 0.92e6, 14.26087e6, 15.330435e6, 16.4e6, 17.5e6)),
    Star("Andre Iguodala", s => if (s >= 4) Some("GSW") else Some("DET"),
      Vector(15, 14, 13, 12, 9, 8, 7, 8, 6, 6),
      Vector(34, 34, 33, 32, 27, 26, 26, 26, 25, 24),
      Vector(18, 18, 17, 16, 13, 12, 11, 12, 11, 10),
      Vector(12.3e6, 13.5e6, 14.0e6, 14.7e6, 12.3e6, 12.3e6, 11.1e6, 13.2e6, 14.8e6, 16.0e6)),
    Star("Harrison Barnes", s => if (s >= 3 && s <= 6) Some("GSW") else if (s > 6) Some("DET") else None,
      Vector(0, 0, 0, 9, 10, 10, 12, 19, 18, 17),
      Vector(0, 0, 0, 25, 28, 28, 31, 35, 34, 32),
      Vector(0, 0, 0, 14, 15, 15, 16, 23, 22, 21),
      Vector(0, 0, 0, 2.9e6, 3.0e6, 3.1e6, 3.9e6, 22.1e6, 23.1e6, 24.1e6)),
    Star("Shaun Livingston", s => if (s >= 5) Some("GSW") else Some("NOP"),
      Vector(5, 6, 6, 7, 8, 6, 6, 5, 5, 4),
      Vector(18, 20, 21, 23, 26, 19, 19, 18, 16, 15),
      Vector(11, 12, 12, 13, 14, 12, 12, 11, 11, 10),
      Vector(1.1e6, 1.2e6, 1.3e6, 1.4e6, 2.1e6, 5.3e6, 5.5e6, 5.8e6, 7.7e6, 7.7e6)),
    Star("Jarrett Jack", s => if (s == 3) Some("GSW") else if (s < 3) Some("NOP") else Some("IND"),
      Vector(9, 10, 11, 13, 9, 8, 7, 6, 5, 4),
      Vector(26, 28, 28, 30, 26, 25, 24, 22, 20, 18),
      Vector(17, 18, 18, 19, 16, 15, 14, 13, 12, 11),
      Vector(2.2e6, 3.0e6, 4.0e6, 5.0e6, 6.1e6, 6.3e6, 6.3e6, 6.0e6, 2.4e6, 2.4e6)),
    Star("Marreese Speights", s => if (s >= 4 && s <= 6) Some("GSW") else Some("PHI"),
      Vector(7, 7, 8, 8, 6, 10, 7, 8, 7, 7),
      Vector(16, 16, 18, 19, 12, 16, 11, 15, 14, 13),
      Vector(14, 14, 15, 15, 12, 16, 13, 15, 14, 13),
      Vector(1.0e6, 1.2e6, 1.4e6, 1.6e6, 1.8e6, 3.6e6, 3.7e6, 1.4e6, 1.5e6, 1.6e6)),
    Star("LeBron James", s => if (s == 0) Some("CLE") else if (s <= 4) Some("MIA") else if (s <= 8) Some("CLE") else Some("LAL"),
      Vector(29.7, 26.7, 27.1, 26.8, 27.1, 25.3, 25.3, 26.4, 27.4, 27.4),
      Vector(39, 38, 37, 38, 38, 36, 35, 37, 37, 35),
      Vector(33, 31, 32, 30, 31, 32, 31, 30, 31, 31),
      Vector(15.779912e6, 14.5e6, 16.0e6, 17.5e6, 19.1e6, 20.6e6, 23.0e6, 31.0e6, 33.3e6, 35.7e6)),
    Star("Jimmy Butler", s => if (s >= 2 && s <= 7) Some("CHI") else if (s > 7) Some("PHI") else None,
      Vector(0, 0, 2.6, 8.6, 13.1, 20.0, 20.9, 23.9, 22.2, 18.7),
      Vector(0, 0, 9, 26, 38, 39, 37, 37, 36, 33),
      Vector(0, 0, 9, 14, 18, 22, 22, 26, 24, 22),
      Vector(0, 0, 1.066e6, 1.1e6, 1.11288e6, 2.008748e6, 5.7e6, 17.6e6, 19.3e6, 20.4e6)),
    Star("Pau Gasol", s => if (s <= 4) Some("LAL") else if (s <= 6) Some("CHI") else Some("SAS"),
      Vector(18, 19, 17, 14, 17, 19, 17, 12, 10, 4),
      Vector(37, 37, 37, 34, 31, 35, 32, 25, 24, 12),
      Vector(23, 24, 23, 21, 22, 24, 23, 18, 16, 12),
      Vector(16.4e6, 17.8e6, 19.0e6, 19.0e6, 19.285849e6, 7.1e6, 7.4e6, 15.5e6, 16.8e6, 2.4e6)),
  )

  /** Generates the whole database at scale factor `sf`. */
  def generate(spark: SparkSession, sf: Double = 0.1, seed: Long = 11): Database = {
    import spark.implicits._
    val rnd = new Random(seed)
    val gamesPerTeam = math.max(6, math.round(82 * sf).toInt)

    val teamRows = teams.zipWithIndex.map { case (t, i) => TeamRow(i + 1, t) }
    val teamId = teams.zipWithIndex.map { case (t, i) => t -> (i + 1) }.toMap

    // Two season rows per year: regular season + playoffs (distinct ids,
    // shared season_name) — that is how season_type enters patterns.
    val seasonRows = seasons.zipWithIndex.flatMap { case (name, i) =>
      Seq(SeasonRow(2 * i + 1, name, "regular season"), SeasonRow(2 * i + 2, name, "playoffs"))
    }

    // Players: the stars plus 7 generic players per team (stable rosters).
    val genericPerTeam = 7
    val genericRows = for {
      (t, ti) <- teams.zipWithIndex
      j <- 1 to genericPerTeam
    } yield PlayerRow(100 + ti * genericPerTeam + j, s"$t Player$j")
    val playerRows = stars.zipWithIndex.map { case (st, i) => PlayerRow(i + 1, st.name) } ++ genericRows

    /** Roster of a team in season s: resident stars + the team's generics. */
    def roster(team: String, s: Int): Vector[Int] = {
      val starsHere = stars.zipWithIndex.collect {
        case (st, i) if st.teamOf(s).contains(team) => i + 1
      }
      val ti = teams.indexOf(team)
      val generics = (1 to genericPerTeam).map(j => 100 + ti * genericPerTeam + j)
      (starsHere ++ generics).toVector
    }

    // Schedule: per season, `gamesPerTeam` rounds of random pairings plus a
    // short playoff round among the strongest four teams.
    val gameRows = scala.collection.mutable.ArrayBuffer.empty[GameRow]
    val tgsRows = scala.collection.mutable.ArrayBuffer.empty[TeamGameStatsRow]
    val pgsRows = scala.collection.mutable.ArrayBuffer.empty[PlayerGameStatsRow]
    val lineupRows = scala.collection.mutable.ArrayBuffer.empty[LineupRow]
    val lineupPlayerRows = scala.collection.mutable.ArrayBuffer.empty[LineupPlayerRow]
    val lgsRows = scala.collection.mutable.ArrayBuffer.empty[LineupGameStatsRow]

    // Lineups: 2 per team-season — the "starters" (first five of the
    // roster, so Green+Thompson share the GSW starter lineup from 2012-13
    // on) and the bench five.
    val lineupIdOf = scala.collection.mutable.Map.empty[(String, Int, Int), Int]
    var nextLineupId = 1
    for (s <- seasons.indices; t <- teams; l <- 0 until 2) {
      val r = roster(t, s)
      val members = if (l == 0) r.take(5) else r.takeRight(5)
      val id = nextLineupId; nextLineupId += 1
      lineupIdOf((t, s, l)) = id
      lineupRows += LineupRow(id, teamId(t))
      members.foreach(p => lineupPlayerRows += LineupPlayerRow(id, p))
    }

    def playerStats(pid: Int, s: Int, won: Boolean, date: String, homeId: Int): PlayerGameStatsRow = {
      val (pts, mins, usg) = stars.zipWithIndex.find(_._2 + 1 == pid) match {
        case Some((st, _)) =>
          val p = math.max(0.0, st.ptsMean(s) + rnd.nextGaussian() * 4 + (if (won) 1.5 else -1.5))
          val m = math.max(0.0, st.minutes(s) + rnd.nextGaussian() * 3)
          val u = math.max(1.0, st.usage(s) + rnd.nextGaussian() * 1.5)
          (p, m, u)
        case None =>
          val p = math.max(0.0, 7 + rnd.nextGaussian() * 4 + (if (won) 0.7 else -0.7))
          (p, math.max(4.0, 20 + rnd.nextGaussian() * 5), math.max(2.0, 14 + rnd.nextGaussian() * 3))
      }
      val ts = math.min(0.95, math.max(0.0, 0.40 + pts / 100.0 + rnd.nextGaussian() * 0.08))
      PlayerGameStatsRow(pid, date, homeId,
        points = math.round(pts).toInt, minutes = math.round(mins * 100) / 100.0,
        usage = math.round(usg * 100) / 100.0,
        tspct = math.round(ts * 100) / 100.0,
        efgpct = math.round(math.min(0.9, math.max(0.0, ts - 0.03 + rnd.nextGaussian() * 0.04)) * 100) / 100.0,
        assists = math.max(0, math.round(usg / 4 + rnd.nextGaussian() * 1.5).toInt),
        assisted_two_spct = math.round(math.min(1.0, math.max(0.0, 0.5 + rnd.nextGaussian() * 0.2)) * 100) / 100.0,
        deflongmidrangereboundpct = math.round(math.min(1.0, math.max(0.0, 0.15 + rnd.nextGaussian() * 0.1)) * 100) / 100.0)
    }

    def teamStats(team: String, s: Int, pts: Int, poss: Int, date: String, homeId: Int): TeamGameStatsRow = {
      // GSW's assist surge from 2014-15 (paper Q_nba2: 23.3 → 27.4).
      val assistMean =
        if (team == "GSW") (if (s >= 5) 27.5 + (s - 5).min(2) * 1.5 else 22.5)
        else 21.0 + strength(team, s) * 4
      val assists = math.max(8, math.round(assistMean + rnd.nextGaussian() * 3).toInt)
      val threeM = math.max(2, math.round(6 + (if (team == "GSW" && s >= 4) 6 else 0) + s * 0.4 + rnd.nextGaussian() * 2).toInt)
      val twoM = math.max(8, (pts - 3 * threeM - 15) / 2)
      val f3pct = math.min(0.65, math.max(0.15, 0.33 + (if (team == "GSW" && s >= 4) 0.06 else 0.0) + rnd.nextGaussian() * 0.05))
      val f2pct = math.min(0.7, math.max(0.3, 0.47 + rnd.nextGaussian() * 0.04))
      val reb = math.max(20, math.round(42 + rnd.nextGaussian() * 5).toInt)
      val offreb = math.max(2, math.round(reb * (0.25 + rnd.nextGaussian() * 0.04)).toInt)
      TeamGameStatsRow(date, homeId, teamId(team),
        points = pts, offposs = poss, assists = assists,
        assistpoints = math.round(assists * (2.2 + rnd.nextGaussian() * 0.1) * 10) / 10.0,
        fg_two_m = twoM, fg_two_pct = math.round(f2pct * 100) / 100.0,
        fg_three_m = threeM, fg_three_pct = math.round(f3pct * 100) / 100.0,
        fg_three_apct = math.round(math.min(0.6, math.max(0.1, 0.28 + (if (team == "GSW" && s >= 4) 0.08 else 0.0) + rnd.nextGaussian() * 0.04)) * 100) / 100.0,
        rebounds = reb, offrebounds = offreb, defrebounds = reb - offreb,
        nonputbacksassisted_two_spct = math.round(math.min(1.0, math.max(0.2, 0.5 + (if (team == "GSW" && s >= 5) 0.08 else 0.0) + rnd.nextGaussian() * 0.06)) * 100) / 100.0,
        offatrimreboundpct = math.round(math.min(0.8, math.max(0.05, 0.25 + rnd.nextGaussian() * 0.05)) * 100) / 100.0,
        efgpct = math.round(math.min(0.75, math.max(0.3, (twoM + 1.5 * threeM) / math.max(1.0, (twoM / f2pct + threeM / f3pct)))) * 100) / 100.0,
        tspct = math.round(math.min(0.75, math.max(0.3, 0.52 + rnd.nextGaussian() * 0.04)) * 100) / 100.0)
    }

    def emitGame(home: String, away: String, s: Int, date: String, seasonId: Int): Unit = {
      val sh = strength(home, s) + 0.06 // home advantage
      val sa = strength(away, s)
      val homeWins = rnd.nextDouble() < sh / (sh + sa)
      val winner = if (homeWins) home else away
      val basePts = 92 + s * 2
      val wPts = basePts + 8 + rnd.nextInt(18)
      val lPts = basePts - 4 + rnd.nextInt(12)
      val (hp, ap) = if (homeWins) (wPts, lPts) else (lPts, wPts)
      val hPoss = 92 + rnd.nextInt(16); val aPoss = 92 + rnd.nextInt(16)
      val hid = teamId(home)
      gameRows += GameRow(date, hid, teamId(away), teamId(winner), seasonId, hp, ap, hPoss, aPoss)
      tgsRows += teamStats(home, s, hp, hPoss, date, hid)
      tgsRows += teamStats(away, s, ap, aPoss, date, hid)
      Seq(home, away).foreach { t =>
        val won = t == winner
        roster(t, s).foreach { pid => pgsRows += playerStats(pid, s, won, date, hid) }
        // Starter lineup takes most minutes; GSW starters play even more
        // together from 2014-15 (paper's Green+Thompson lineup pattern).
        val starterMp =
          if (t == "GSW" && s >= 5) 24.0 + rnd.nextGaussian() * 3
          else 14.0 + rnd.nextGaussian() * 4
        val mp0 = math.max(2.0, math.min(40.0, starterMp))
        val mp1 = math.max(2.0, 48.0 - mp0 + rnd.nextGaussian() * 2)
        Seq(0, 1).zip(Seq(mp0, mp1)).foreach { case (l, mp) =>
          lgsRows += LineupGameStatsRow(lineupIdOf((t, s, l)), date, hid,
            math.round(mp * 100) / 100.0, 90 + rnd.nextInt(20), 90 + rnd.nextInt(20))
        }
      }
    }

    for (s <- seasons.indices) {
      val year = 2009 + s
      var day = 0
      for (round <- 0 until gamesPerTeam) {
        val order = rnd.shuffle(teams)
        order.grouped(2).foreach {
          case Seq(a, b) =>
            val date = f"${if (round < gamesPerTeam / 2) year else year + 1}%04d-${(10 + (day / 28) % 7) % 12 + 1}%02d-${day % 28 + 1}%02d"
            emitGame(a, b, s, date, 2 * s + 1)
            day += 1
          case _ => ()
        }
      }
      // Playoffs: the four strongest teams play a short round-robin.
      val top4 = teams.sortBy(t => -strength(t, s)).take(4)
      for (i <- top4.indices; j <- i + 1 until top4.size; g <- 0 until math.max(1, gamesPerTeam / 10)) {
        val date = f"${year + 1}%04d-05-${(i * 7 + j * 3 + g) % 28 + 1}%02d"
        emitGame(top4(i), top4(j), s, date, 2 * s + 2)
      }
    }

    // Deduplicate (game_date, home_id) collisions from the crude calendar:
    // keep the first game of each key so the PK actually holds.
    val seenKeys = scala.collection.mutable.Set.empty[(String, Int)]
    val games = gameRows.filter(g => seenKeys.add((g.game_date, g.home_id))).toVector
    val gameKeys = games.map(g => (g.game_date, g.home_id)).toSet
    val tgs = tgsRows.filter(r => gameKeys((r.game_date, r.home_id)))
      .distinctBy(r => (r.game_date, r.home_id, r.team_id)).toVector
    val pgs = pgsRows.filter(r => gameKeys((r.game_date, r.home_id)))
      .distinctBy(r => (r.player_id, r.game_date, r.home_id)).toVector
    val lgs = lgsRows.filter(r => gameKeys((r.game_date, r.home_id)))
      .distinctBy(r => (r.lineup_id, r.game_date, r.home_id)).toVector

    // Salaries for every season id (regular + playoffs share the figure).
    val salaryRows = for {
      (st, i) <- stars.zipWithIndex
      s <- seasons.indices
      if st.teamOf(s).isDefined && st.salary(s) > 0
      sid <- Seq(2 * s + 1, 2 * s + 2)
    } yield SalaryRow(i + 1, sid, st.salary(s))
    val genericSalaries = for {
      p <- genericRows
      s <- seasons.indices
      sid <- Seq(2 * s + 1, 2 * s + 2)
    } yield SalaryRow(p.player_id, sid, 1.5e6 + (p.player_id % 13) * 0.45e6 + s * 2.0e5)

    // play_for: contiguous stints from the star placement functions.
    val playForRows = scala.collection.mutable.ArrayBuffer.empty[PlayForRow]
    stars.zipWithIndex.foreach { case (st, i) =>
      var s = 0
      while (s < seasons.size) {
        st.teamOf(s) match {
          case None => s += 1
          case Some(t) =>
            var e = s
            while (e + 1 < seasons.size && st.teamOf(e + 1).contains(t)) e += 1
            val endDate = if (e == seasons.size - 1) "2019-04-09" else f"${2010 + e}%04d-04-12"
            playForRows += PlayForRow(i + 1, teamId(t), f"${2009 + s}%04d-10-01", endDate)
            s = e + 1
        }
      }
    }
    genericRows.foreach { p =>
      val ti = (p.player_id - 101) / genericPerTeam
      playForRows += PlayForRow(p.player_id, ti + 1, "2009-10-01", "2019-04-09")
    }
    // A player can rejoin a team (LeBron: CLE→MIA→CLE); keep the latest
    // stint per (player, team) so the declared key holds.
    val playFor = playForRows.toVector.groupBy(r => (r.player_id, r.team_id))
      .values.map(_.maxBy(_.date_end)).toVector.sortBy(r => (r.player_id, r.team_id))

    val tables = Map(
      "game" -> games.toDF(),
      "team" -> teamRows.toDF(),
      "season" -> seasonRows.toDF(),
      "player" -> playerRows.toDF(),
      "player_salary" -> (salaryRows ++ genericSalaries).toDF(),
      "play_for" -> playFor.toDF(),
      "lineup" -> lineupRows.toVector.toDF(),
      "lineup_player" -> lineupPlayerRows.toVector.toDF(),
      "lineup_game_stats" -> lgs.toDF(),
      "team_game_stats" -> tgs.toDF(),
      "player_game_stats" -> pgs.toDF(),
    )
    Database(tables, schemaGraph)
  }

  /** Schema graph of Figure 5: FK joins plus the team-role variants on
    * game (home/away/winner), mirroring l_Sedge(u₁)'s multiple conditions.
    */
  val schemaGraph: SchemaGraph = SchemaGraph(
    rels = Map(
      "game" -> RelMeta("game", Seq("game_date", "home_id")),
      "team" -> RelMeta("team", Seq("team_id")),
      "season" -> RelMeta("season", Seq("season_id")),
      "player" -> RelMeta("player", Seq("player_id")),
      "player_salary" -> RelMeta("player_salary", Seq("player_id", "season_id")),
      "play_for" -> RelMeta("play_for", Seq("player_id", "team_id")),
      "lineup" -> RelMeta("lineup", Seq("lineup_id")),
      "lineup_player" -> RelMeta("lineup_player", Seq("lineup_id", "player_id")),
      "lineup_game_stats" -> RelMeta("lineup_game_stats", Seq("lineup_id", "game_date", "home_id")),
      "team_game_stats" -> RelMeta("team_game_stats", Seq("game_date", "home_id", "team_id")),
      "player_game_stats" -> RelMeta("player_game_stats", Seq("player_id", "game_date", "home_id")),
    ),
    edges = Seq(
      SchemaEdge("game", "season", Seq(JoinCond(Seq("season_id" -> "season_id")))),
      SchemaEdge("game", "team", Seq(
        JoinCond(Seq("home_id" -> "team_id")),
        JoinCond(Seq("away_id" -> "team_id")),
        JoinCond(Seq("winner_id" -> "team_id")))),
      SchemaEdge("game", "team_game_stats", Seq(
        JoinCond(Seq("game_date" -> "game_date", "home_id" -> "home_id")))),
      SchemaEdge("team_game_stats", "team", Seq(JoinCond(Seq("team_id" -> "team_id")))),
      SchemaEdge("game", "player_game_stats", Seq(
        JoinCond(Seq("game_date" -> "game_date", "home_id" -> "home_id")))),
      SchemaEdge("player_game_stats", "player", Seq(JoinCond(Seq("player_id" -> "player_id")))),
      SchemaEdge("player_salary", "player", Seq(JoinCond(Seq("player_id" -> "player_id")))),
      SchemaEdge("player_salary", "season", Seq(JoinCond(Seq("season_id" -> "season_id")))),
      SchemaEdge("play_for", "player", Seq(JoinCond(Seq("player_id" -> "player_id")))),
      SchemaEdge("play_for", "team", Seq(JoinCond(Seq("team_id" -> "team_id")))),
      SchemaEdge("game", "lineup_game_stats", Seq(
        JoinCond(Seq("game_date" -> "game_date", "home_id" -> "home_id")))),
      SchemaEdge("lineup_game_stats", "lineup", Seq(JoinCond(Seq("lineup_id" -> "lineup_id")))),
      SchemaEdge("lineup_player", "lineup", Seq(JoinCond(Seq("lineup_id" -> "lineup_id")))),
      SchemaEdge("lineup_player", "player", Seq(JoinCond(Seq("player_id" -> "player_id")))),
      SchemaEdge("lineup", "team", Seq(JoinCond(Seq("team_id" -> "team_id")))),
    ),
  )

  // ---- workload queries (paper Tables 2/3) --------------------------------

  private def playerPointsQuery(name: String, qname: String): QuerySpec = QuerySpec(
    name = qname,
    tables = Seq("player" -> "p", "player_game_stats" -> "pgs", "game" -> "g", "season" -> "s"),
    joins = Seq(
      (("p", "player_id"), ("pgs", "player_id")),
      (("g", "game_date"), ("pgs", "game_date")),
      (("g", "home_id"), ("pgs", "home_id")),
      (("s", "season_id"), ("g", "season_id"))),
    filters = Seq(Filter("p", "player_name", name)),
    groupBy = Seq("s" -> "season_name"),
    agg = AvgOf("pgs.points", "avg_pts"),
  )

  /** Q_nba1 — Draymond Green's average points per season. */
  val qNba1: QuerySpec = playerPointsQuery("Draymond Green", "Q_nba1")

  /** Q_nba2 — GSW average assists per season. */
  val qNba2: QuerySpec = QuerySpec(
    name = "Q_nba2",
    tables = Seq("team_game_stats" -> "tgs", "game" -> "g", "team" -> "t", "season" -> "s"),
    joins = Seq(
      (("s", "season_id"), ("g", "season_id")),
      (("tgs", "game_date"), ("g", "game_date")),
      (("tgs", "home_id"), ("g", "home_id")),
      (("tgs", "team_id"), ("t", "team_id"))),
    filters = Seq(Filter("t", "team", "GSW")),
    groupBy = Seq("s" -> "season_name"),
    agg = AvgOf("tgs.assists", "avg_ast"),
  )

  /** Q_nba3 — LeBron James's average points per season. */
  val qNba3: QuerySpec = playerPointsQuery("LeBron James", "Q_nba3")

  /** Q_nba4 — GSW wins per season (the running example Q1/Q1'). */
  val qNba4: QuerySpec = QuerySpec(
    name = "Q_nba4",
    tables = Seq("team" -> "t", "game" -> "g", "season" -> "s"),
    joins = Seq(
      (("t", "team_id"), ("g", "winner_id")),
      (("g", "season_id"), ("s", "season_id"))),
    filters = Seq(Filter("t", "team", "GSW")),
    groupBy = Seq("s" -> "season_name"),
    agg = CountStar("win"),
  )

  /** Join graph PT(g) – player_game_stats(1) – player(2) over Q_nba4's
    * provenance: the APT of Figure 11, Table 10 and the study explanations.
    */
  val pgsPlayerJg: JoinGraph = JoinGraph(
    Vector(JGNode(0, "PT"), JGNode(1, "player_game_stats"), JGNode(2, "player")),
    Vector(
      JGEdge(0, 1, Some("g"), JoinCond(Seq("game_date" -> "game_date", "home_id" -> "home_id"))),
      JGEdge(1, 2, None, JoinCond(Seq("player_id" -> "player_id")))))

  /** Q_nba5 — Jimmy Butler's average points per season. */
  val qNba5: QuerySpec = playerPointsQuery("Jimmy Butler", "Q_nba5")

  /** User-question season pairs of Table 4, keyed by prov column. */
  def seasonQuestion(q: QuerySpec, s1: String, s2: String): TwoPoint = {
    val c = q.groupCols.head
    TwoPoint(Map(c -> s1), Map(c -> s2))
  }
}
