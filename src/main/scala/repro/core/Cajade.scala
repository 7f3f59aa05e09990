package repro.core

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

  /** Runs the full pipeline for a query and user question. The PT and
    * every APT are built on the driver ([[Join.Apts]]) from the relations
    * `db` holds, each collected once per database, so only the first call
    * that reads a relation launches a Spark job for it. Safe to call from
    * several threads on one database. A question whose t1 or t2 has no
    * provenance is rejected, as [[Query.provenanceTable]] rejects a
    * malformed one.
    */
  def explain(db: Schema.Database, q: Query.QuerySpec, uq: Query.UserQuestion,
              params: Params = Params.default,
              timer: Mine.StepTimer = new Mine.StepTimer): Result = {
    val apts = timer.time("Materialize APTs") { Join.Apts(db, q, uq, params) }
    val sizes = apts.sizes
    for ((t, n) <- Seq("t1" -> sizes.n1, "t2" -> sizes.n2) if n == 0)
      throw new IllegalArgumentException(
        s"user question: $t ${uq.tuples.toMap.getOrElse(t, "(every other output tuple)")} has no provenance")
    val graphs = timer.time("JG Enum.") {
      Enumerate.enumerate(db, q, params, sizes.n1 + sizes.n2)
    }
    val perGraph = graphs.map(jg => jg -> Mine.mineJoinGraph(apts, jg, params, timer))
    val all = perGraph.flatMap(_._2.explanations).sortBy(-_.fscore)
    Result(all, perGraph, graphs.size, timer)
  }
}
