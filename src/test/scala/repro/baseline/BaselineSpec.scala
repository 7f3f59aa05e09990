package repro.baseline

import repro.{SparkSpec, TestData}
import repro.core.{Apt, Join, Metrics, Params, Query}
import repro.data.Nba

/** Tests for the two comparison systems: Explanation Tables [19] and
  * CAPE [34].
  */
class BaselineSpec extends SparkSpec {

  // ---- CAPE ---------------------------------------------------------------

  private val series = Seq(
    "2009-10" -> 26.0, "2010-11" -> 36.0, "2011-12" -> 23.0, "2012-13" -> 47.0,
    "2013-14" -> 51.0, "2014-15" -> 67.0, "2015-16" -> 73.0, "2016-17" -> 67.0,
    "2017-18" -> 58.0, "2018-19" -> 57.0)

  test("CAPE high-question returns below-trend counterbalances") {
    val cb = Cape.explain(series, "2015-16", Cape.High, 3)
    assert(cb.size == 3)
    assert(cb.forall(_.residual < 0))
    assert(!cb.exists(_.group == "2015-16"))
  }
  test("CAPE counterbalances for GSW-high are the most-below-trend seasons (Figure 13)") {
    val cb = Cape.explain(series, "2015-16", Cape.High, 3).map(_.group)
    // Against the fitted rising trend the deepest negative residuals are
    // the 2011-12 collapse and the post-peak 2017-19 decline.
    assert(cb.contains("2011-12"))
    assert(!cb.contains("2015-16") && !cb.contains("2014-15"))
  }
  test("CAPE low-question returns above-trend outliers") {
    val lebron = Seq("2009-10" -> 29.7, "2010-11" -> 26.7, "2011-12" -> 27.1, "2012-13" -> 26.8,
      "2013-14" -> 27.1, "2014-15" -> 25.3, "2015-16" -> 25.3, "2016-17" -> 26.4,
      "2017-18" -> 27.4, "2018-19" -> 27.4)
    val cb = Cape.explain(lebron, "2010-11", Cape.Low, 3)
    assert(cb.forall(_.residual > 0))
    assert(cb.map(_.group).contains("2009-10"))
  }
  test("CAPE handles degenerate series") {
    assert(Cape.explain(Seq("a" -> 1.0), "a", Cape.High).isEmpty)
  }
  test("CAPE series reader handles numeric column types") {
    val df = Query.run(TestData.nba(spark), Nba.qNba4)
    val s = Cape.series(df, "prov_s_season_name", "win")
    assert(s.size == 10 && s.forall(_._2 > 0))
  }

  // ---- Explanation Tables -------------------------------------------------

  private def mkSample(rows: Seq[(String, Double, Int)]): Metrics.Table =
    TestData.sample(Seq("cat" -> false, "num" -> true), rows.map { case (c, n, label) => (Seq(c, n), label) })

  test("ET bucketizes numeric attributes into categorical bins") {
    val s = mkSample((1 to 40).map(i => ("c", i.toDouble, i % 2)))
    val b = ExplanationTables.bucketize(s)
    assert(b.names.forall(!b.isNumeric(_)))
    val bins = b.stringValues("num").distinct
    assert(bins.size > 1 && bins.forall(_.startsWith("bin")))
  }
  test("ET greedy summary finds the outcome-aligned pattern first") {
    val rows = (1 to 100).map { i =>
      val label = i % 2
      (if (label == 1) "pos" else "neg", i.toDouble, label)
    }
    val out = ExplanationTables.summarize(mkSample(rows), k = 3)
    assert(out.nonEmpty)
    val first = out.head.pattern.render
    assert(first.contains("pos") || first.contains("neg") || first.contains("bin"))
    assert(out.head.gain > 0)
  }
  test("ET returns at most k patterns and marks covered rows") {
    val rows = (1 to 60).map(i => (s"g${i % 3}", i.toDouble, i % 2))
    val out = ExplanationTables.summarize(mkSample(rows), k = 2)
    assert(out.size <= 2)
  }
  test("ET runtime grows with sample size (the Figure 11 effect)") {
    val q = Nba.qNba4
    val apts = Join.Apts(TestData.nba(spark), q, Nba.seasonQuestion(q, "2015-16", "2012-13"), Params.default)
    val apt = apts(Nba.pgsPlayerJg)
    val attrs = Apt.patternColumns(apt.names, q).filterNot(_.endsWith("_id"))
    val (p16, _) = ExplanationTables.run(apt, attrs, sampleSize = 16, k = 5)
    val (p128, _) = ExplanationTables.run(apt, attrs, sampleSize = 128, k = 5)
    assert(p16.nonEmpty && p128.nonEmpty)
  }
}
