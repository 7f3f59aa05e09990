package repro.core

import org.apache.spark.sql.DataFrame

/** CaJaDE end-to-end driver: enumerate join graphs for the user's query,
  * mine each, and return a globally F-score-ranked list of explanations
  * (paper Sections 3–4, "Ranking Results").
  */
object Cajade {

  final case class Result(
      explanations: Seq[Mine.Explanation],
      perGraph: Seq[(Schema.JoinGraph, Mine.MineResult)],
      joinGraphCount: Int,
      timer: Mine.StepTimer,
  ) {
    /** Global ranking with near-duplicate suppression: the same pattern and
      * orientation reached through different join paths is reported once
      * (the paper dedupes these for presentation in Section 6).
      */
    def topExplanations(n: Int): Seq[Mine.Explanation] =
      explanations
        .sortBy(e => (-e.fscore, e.pattern.render))
        .distinctBy(e => (e.pattern, e.quality.primary))
        .take(n)
  }

  /** Runs the full pipeline for a query and user question. */
  def explain(db: Schema.Database, q: Query.QuerySpec, uq: Query.UserQuestion,
              params: Params = Params.default,
              timer: Mine.StepTimer = new Mine.StepTimer): Result = {
    val pt: DataFrame = Query.questionProvenance(db, q, uq).cache()
    try {
      val sizes = Mine.questionSizes(pt, params)
      val ptRows = sizes.n1 + sizes.n2
      val graphs = timer.time("JG Enum.") {
        Enumerate.enumerate(db, q, params, ptRows)
      }
      val perGraph = graphs.map { jg =>
        jg -> Mine.mineJoinGraph(db, q, pt, jg, params, timer, Some(sizes))
      }
      val all = perGraph.flatMap(_._2.explanations).sortBy(-_.fscore)
      Result(all, perGraph, graphs.size, timer)
    } finally pt.unpersist()
  }
}
