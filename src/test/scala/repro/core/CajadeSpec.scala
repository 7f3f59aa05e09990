package repro.core

import repro.{SparkSpec, TestData}
import repro.data.{Mimic, Nba}

/** End-to-end CaJaDE integration tests: enumerate → mine → rank on the
  * tiny synthetic databases.
  */
class CajadeSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private lazy val mimic = TestData.mimic(spark)

  private val fast = Params(maxEdges = 2, maxJoinGraphs = 12, topK = 5,
    f1SampleRate = 1.0, qCostThreshold = 5e5)

  /** UQ₁ explained once with `fast`, shared by the tests that inspect it. */
  private lazy val uq1Result =
    Cajade.explain(nba, Nba.qNba4, Nba.seasonQuestion(Nba.qNba4, "2015-16", "2012-13"), fast)

  test("UQ₁ (GSW 2015-16 vs 2012-13) produces ranked explanations") {
    val res = uq1Result
    assert(res.joinGraphCount > 1)
    val top = res.topExplanations(10)
    assert(top.nonEmpty)
    val fs = top.map(_.fscore)
    assert(fs == fs.sortBy(-(_: Double)))
    assert(top.head.fscore > 0.5)
  }

  test("UQ₁ top explanations include context (non-PT) attributes") {
    val res = uq1Result
    val top = res.topExplanations(10)
    assert(top.exists(e => e.pattern.preds.exists(p => p.attr.startsWith("a"))))
  }

  test("global ranking dedupes identical patterns from different graphs") {
    val res = uq1Result
    val top = res.topExplanations(20)
    val keys = top.map(e => (e.pattern, e.quality.primary))
    assert(keys.distinct.size == keys.size)
  }

  test("UQ₁ top-k and supports do not depend on the shuffle partition count") {
    // The collected relations' row order, and so the PT's row order and
    // `pt_id`s, follow the partition layout. Coverage depends only on
    // `pt_id` identity, and the λ_F1-samp sample on a hash of each PT
    // tuple's values, so the answer must not.
    val uq = Nba.seasonQuestion(Nba.qNba4, "2015-16", "2012-13")
    val params = fast.copy(maxEdges = 1, maxJoinGraphs = 3)
    def topAt(db: Schema.Database, params: Params, partitions: Int) = {
      val before = spark.conf.get("spark.sql.shuffle.partitions")
      spark.conf.set("spark.sql.shuffle.partitions", partitions.toLong)
      try {
        val res = Cajade.explain(db, Nba.qNba4, uq, params)
        assert(res.joinGraphCount > 1)
        res.topExplanations(10).map(e => (e.jg.describe, e.pattern.render, e.quality))
      } finally spark.conf.set("spark.sql.shuffle.partitions", before)
    }
    val Seq(one, four, many) = Seq(1, 4, 64).map(topAt(nba, params, _))
    assert(one.nonEmpty)
    assert(four == one)
    assert(many == one)

    // λ_F1-samp = 0.3 and λ_#edges = 2, also over input tables
    // repartitioned to seeded random partition counts.
    val sampled = fast.copy(f1SampleRate = 0.3)
    val rnd = new scala.util.Random(23)
    def repartitioned = nba.copy(tables = nba.tables.map { case (n, df) => n -> df.repartition(1 + rnd.nextInt(24)) })
    val reference = topAt(nba, sampled, 4)
    assert(reference.nonEmpty)
    for (partitions <- Seq(1, 4, 64)) {
      assert(topAt(nba, sampled, partitions) == reference)
      assert(topAt(repartitioned, sampled, partitions) == reference)
    }
  }

  test("MIMIC UQ₂ (Medicare vs Private) surfaces emergency/age context") {
    val res = Cajade.explain(mimic, Mimic.qMimicInsurance,
      Mimic.question(Mimic.qMimicInsurance, "Medicare", "Private"), fast)
    val top = res.topExplanations(10)
    assert(top.nonEmpty)
    val rendered = top.map(_.pattern.render).mkString(" | ")
    assert(rendered.contains("EMERGENCY") || rendered.contains("age") ||
      rendered.contains("expire_flag") || rendered.contains("gender"))
  }

  test("single-point questions work end to end") {
    val sp = Query.SinglePoint(Map("prov_s_season_name" -> "2015-16"))
    val res = Cajade.explain(nba, Nba.qNba4, sp, fast.copy(maxEdges = 1, maxJoinGraphs = 5))
    assert(res.explanations.nonEmpty)
  }

  test("explaining a tuple with no provenance fails and names the tuple") {
    val uq = Nba.seasonQuestion(Nba.qNba4, "2015-16", "1999-00")
    val e = intercept[IllegalArgumentException] { Cajade.explain(nba, Nba.qNba4, uq, fast) }
    assert(e.getMessage.contains("t2 Map(prov_s_season_name -> 1999-00) has no provenance"))
  }

  test("explain with λ_F1-samp < 1 leaves no RDD persisted") {
    val db = mimic // its cached tables count in `before`
    val uq = Mimic.question(Mimic.qMimicInsurance, "Medicare", "Private")
    val before = spark.sparkContext.getPersistentRDDs.size
    Cajade.explain(db, Mimic.qMimicInsurance, uq,
      fast.copy(maxEdges = 1, maxJoinGraphs = 2, f1SampleRate = 0.3))
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }

  test("timer records join-graph enumeration separately") {
    val timer = new Mine.StepTimer
    Cajade.explain(nba, Nba.qNba4, Nba.seasonQuestion(Nba.qNba4, "2015-16", "2012-13"),
      fast.copy(maxEdges = 1, maxJoinGraphs = 4), timer)
    assert(timer.seconds("JG Enum.") > 0)
    assert(timer.seconds("Materialize APTs") > 0)
  }
}
