package repro.core

import repro.{SparkSpec, TestData}
import repro.core.Schema.JoinGraph
import repro.data.Nba

/** Spark jobs per `explain`: a mined join graph costs one job, and the
  * question's provenance sizes are counted by the job that computes the PT.
  */
class JobBudgetSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private val q = Nba.qNba4
  private val uq = Nba.seasonQuestion(q, "2015-16", "2012-13")
  private val params = Params(maxEdges = 1, maxJoinGraphs = 1, topK = 5, f1SampleRate = 0.5)

  test("mining Ω₀ with the question sizes given launches exactly one Spark job") {
    val pt = Query.questionProvenance(nba, q, uq).cache()
    try {
      val sizes = Mine.questionSizes(pt, params)
      val jobs = sparkJobs(Mine.mineJoinGraph(nba, q, pt, JoinGraph.empty, params, sizes = Some(sizes)))
      assert(jobs == 1)
    } finally pt.unpersist()
  }

  test("explain with one join graph launches the PT's jobs plus one") {
    val explainJobs = sparkJobs {
      val res = Cajade.explain(nba, q, uq, params)
      assert(res.joinGraphCount == 1 && res.explanations.nonEmpty)
    }
    // The PT's own jobs: computing and caching it, with the sizes counted
    // by the same action.
    val ptJobs = sparkJobs {
      val pt = Query.questionProvenance(nba, q, uq).cache()
      try Mine.questionSizes(pt, params) finally pt.unpersist()
    }
    assert(ptJobs > 0 && explainJobs <= ptJobs + 1)
  }
}
