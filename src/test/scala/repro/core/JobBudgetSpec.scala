package repro.core

import java.util.concurrent.CyclicBarrier
import repro.{SparkSpec, TestData}
import repro.core.Schema.JoinGraph
import repro.data.Nba

/** Spark jobs per `explain`: one collect per relation per database, each
  * launched from `Join.scala`. The join-graph cost model reads the same
  * held relations, so it launches none of its own.
  */
class JobBudgetSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private val q = Nba.qNba4
  private val uq = Nba.seasonQuestion(q, "2015-16", "2012-13")
  private val params = Params(maxEdges = 1, maxJoinGraphs = 1, topK = 5, f1SampleRate = 0.5)

  /** The relations `res` read: the query's and its graphs' context nodes'. */
  private def read(q: Query.QuerySpec, res: Cajade.Result): Seq[String] =
    (q.tables.map(_._1) ++ res.perGraph.flatMap(_._1.contextNodes.map(_.rel))).distinct

  /** The relations a first `explain` of `q` under `p` reads: the query's,
    * and those of every PK-connected graph of up to `p.maxEdges` edges, each
    * of which the enumeration estimates. Holds when the cap on join graphs
    * does not end the enumeration before its last level.
    */
  private def estimated(q: Query.QuerySpec, p: Params): Set[String] = {
    val sg = nba.schemaGraph
    val levels = Iterator.iterate(Seq(JoinGraph.empty))(_.flatMap(Enumerate.extend(_, sg, q))).slice(1, p.maxEdges + 1)
    q.tables.map(_._1).toSet ++
      levels.flatten.filter(Enumerate.pkConnected(_, sg)).flatMap(_.contextNodes.map(_.rel))
  }

  /** What `explain` returns, comparable across calls. */
  private def answer(res: Cajade.Result) =
    (res.joinGraphCount, res.explanations.map(e => (e.jg.describe, e.pattern.render, e.quality)))

  test("mining Ω₀ over a cached Spark PT launches exactly one Spark job") {
    val pt = Query.questionProvenance(nba, q, uq).cache()
    try {
      pt.count()
      assert(sparkJobs(Mine.mineJoinGraph(nba, q, pt, JoinGraph.empty, params)) == 1)
    } finally pt.unpersist()
  }

  test("explain with one join graph launches one collect per query relation") {
    val jobs = sparkJobFiles {
      val res = Cajade.explain(nba.copy(), q, uq, params)
      assert(res.joinGraphCount == 1 && res.explanations.nonEmpty)
    }
    assert(jobs == Seq.fill(q.tables.size)("Join"))
  }

  test("a second explain on the same database launches no enumeration jobs") {
    val p = params.copy(maxEdges = 2, maxJoinGraphs = 8)
    val ptRows = Cajade.explain(nba, q, uq, p).perGraph.head._2.aptStats.rows
    assert(sparkJobs(Enumerate.enumerate(nba, q, p, ptRows)) == 0)
  }

  test("Q_nba1 at λ_#edges = 2 with no cap: one collect per relation read, not per graph") {
    // On a fresh database; a later call on it, of any question, launches none.
    val q1 = Nba.qNba1
    val uq1 = Nba.seasonQuestion(q1, "2015-16", "2016-17")
    val p = Params(maxEdges = 2, maxJoinGraphs = 100000, topK = 5, f1SampleRate = 0.3)
    val db = nba.copy()
    var res: Cajade.Result = null
    val first = sparkJobFiles { res = Cajade.explain(db, q1, uq1, p) }
    assert(res.joinGraphCount == 46)
    assert(first == Seq.fill(estimated(q1, p).size)("Join"))
    assert(first.size == read(q1, res).size)
    assert(sparkJobs(Cajade.explain(db, q1, uq1, p)) == 0)
    // Q_nba4's relations are among those Q_nba1's graphs read.
    assert(sparkJobs(Cajade.explain(db, q, uq, params)) == 0)
  }

  test("4 threads explaining at once on a fresh database collect each relation once and agree") {
    val p = Params(maxEdges = 1, maxJoinGraphs = 6, topK = 5, f1SampleRate = 0.3)
    val single = Cajade.explain(nba, q, uq, p)
    val db = nba.copy()
    val threads = 4
    val results = new Array[Either[Throwable, Cajade.Result]](threads)
    val jobs = sparkJobFiles {
      // Created inside the count, so the threads inherit its job group.
      val start = new CyclicBarrier(threads)
      val workers = (0 until threads).map { t =>
        new Thread(() => {
          start.await()
          results(t) = try Right(Cajade.explain(db, q, uq, p)) catch { case e: Throwable => Left(e) }
        })
      }
      workers.foreach(_.start())
      workers.foreach(_.join())
    }
    results.foreach(r => assert(r.map(answer) == Right(answer(single))))
    assert(jobs == Seq.fill(estimated(q, p).size)("Join"))
  }
}
