package repro.core

import repro.{SparkSpec, TestData}
import repro.core.Schema.JoinGraph
import repro.data.Nba

/** Spark jobs per `explain`: one collect per relation the call reads, and
  * the enumeration statistics once per database.
  */
class JobBudgetSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private val q = Nba.qNba4
  private val uq = Nba.seasonQuestion(q, "2015-16", "2012-13")
  private val params = Params(maxEdges = 1, maxJoinGraphs = 1, topK = 5, f1SampleRate = 0.5)

  test("mining Ω₀ over a cached Spark PT launches exactly one Spark job") {
    val pt = Query.questionProvenance(nba, q, uq).cache()
    try {
      pt.count()
      assert(sparkJobs(Mine.mineJoinGraph(nba, q, pt, JoinGraph.empty, params)) == 1)
    } finally pt.unpersist()
  }

  test("explain with one join graph launches one collect per query relation") {
    val jobs = sparkJobs {
      val res = Cajade.explain(nba, q, uq, params)
      assert(res.joinGraphCount == 1 && res.explanations.nonEmpty)
    }
    assert(jobs == q.tables.size)
  }

  test("a second explain on the same database launches no enumeration jobs") {
    val p = params.copy(maxEdges = 2, maxJoinGraphs = 8)
    val ptRows = Cajade.explain(nba, q, uq, p).perGraph.head._2.aptStats.rows
    assert(sparkJobs(Enumerate.enumerate(nba, q, p, ptRows)) == 0)
  }

  test("Q_nba1 at λ_#edges = 2 with no cap: one collect per relation read, not per graph") {
    val q1 = Nba.qNba1
    val uq1 = Nba.seasonQuestion(q1, "2015-16", "2016-17")
    val p = Params(maxEdges = 2, maxJoinGraphs = 100000, topK = 5, f1SampleRate = 0.3)
    Cajade.explain(nba, q1, uq1, p) // the enumeration statistics, once per database
    var res: Cajade.Result = null
    val jobs = sparkJobs { res = Cajade.explain(nba, q1, uq1, p) }
    val read = (q1.tables.map(_._1) ++ res.perGraph.flatMap(_._1.contextNodes.map(_.rel))).distinct
    assert(res.joinGraphCount == 46)
    assert(jobs == read.size)
  }
}
