package repro.core

import repro.{SparkSpec, TestData}
import repro.core.Schema._
import repro.data.{Mimic, Nba}

/** Join-graph enumeration tests (Algorithm 2): extension semantics,
  * deduplication up to relabeling, the PK-connectivity IsValid test, and
  * the cost cutoff.
  */
class EnumerateSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private lazy val mimic = TestData.mimic(spark)

  private val sgSmall = SchemaGraph(
    rels = Map(
      "r" -> RelMeta("r", Seq("k")),
      "s" -> RelMeta("s", Seq("k")),
      "t" -> RelMeta("t", Seq("k", "j"))),
    edges = Seq(
      SchemaEdge("r", "s", Seq(JoinCond(Seq("k" -> "k")))),
      SchemaEdge("s", "t", Seq(JoinCond(Seq("k" -> "k")), JoinCond(Seq("k" -> "j"))))))
  private val qSmall = Query.QuerySpec("q", Seq("r" -> "r1"), Nil, Nil, Seq("r" -> "k"), Query.CountStar("c"))

  test("extending Ω₀ adds one context node per adjacent condition") {
    val ext = Enumerate.extend(JoinGraph.empty, sgSmall, qSmall)
    // r only touches s via one condition → exactly one extension.
    assert(ext.size == 1)
    assert(ext.head.contextNodes.map(_.rel) == Seq("s"))
    assert(ext.head.edges.head.queryAlias.contains("r1"))
  }

  test("second-level extensions include both s–t conditions") {
    val l1 = Enumerate.extend(JoinGraph.empty, sgSmall, qSmall)
    val l2 = l1.flatMap(g => Enumerate.extend(g, sgSmall, qSmall))
    val rels = l2.flatMap(_.contextNodes.map(_.rel))
    assert(rels.contains("t"))
    // s–t has two conditions → at least two distinct two-edge graphs with t.
    assert(l2.count(_.contextNodes.map(_.rel).contains("t")) >= 2)
  }

  test("addEdge connects to existing same-relation nodes without duplicating") {
    val g1 = Enumerate.extend(JoinGraph.empty, sgSmall, qSmall).head
    val cond = JoinCond(Seq("k" -> "k"))
    val added = Enumerate.addEdge(g1, 0, Some("r1"), "s", cond)
    // One fresh-node graph; the existing s node already has this exact
    // edge, so no connect-existing variant is produced.
    assert(added.size == 1)
    assert(added.head.contextNodes.size == 2)
  }

  test("PT never appears as both endpoints of an edge") {
    val all = Enumerate.extend(JoinGraph.empty, Nba.schemaGraph, Nba.qNba4)
    assert(all.forall(_.edges.forall(e => e.toNode != 0)))
  }

  test("canonical form deduplicates context-node relabelings") {
    val a = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "x"), JGNode(2, "y")),
      Vector(
        JGEdge(0, 1, Some("g"), JoinCond(Seq("a" -> "a"))),
        JGEdge(1, 2, None, JoinCond(Seq("b" -> "b")))))
    val b = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "y"), JGNode(2, "x")),
      Vector(
        JGEdge(0, 2, Some("g"), JoinCond(Seq("a" -> "a"))),
        JGEdge(2, 1, None, JoinCond(Seq("b" -> "b")))))
    assert(a.canonical == b.canonical)
  }
  test("canonical form distinguishes different conditions") {
    val a = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "x")),
      Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("a" -> "a")))))
    val b = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "x")),
      Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("a" -> "b")))))
    assert(a.canonical != b.canonical)
  }

  test("pkConnected accepts fully keyed context nodes") {
    val jg = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "team")),
      Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("winner_id" -> "team_id")))))
    assert(Enumerate.pkConnected(jg, Nba.schemaGraph))
  }
  test("pkConnected rejects partially keyed context nodes (Section 4 guard)") {
    // player_salary PK is (player_id, season_id); joining only season_id
    // must be rejected until a second edge covers player_id.
    val partial = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "player_salary")),
      Vector(JGEdge(0, 1, Some("s"), JoinCond(Seq("season_id" -> "season_id")))))
    assert(!Enumerate.pkConnected(partial, Nba.schemaGraph))
    val full = JoinGraph(
      partial.nodes :+ JGNode(2, "player"),
      partial.edges :+ JGEdge(1, 2, None, JoinCond(Seq("player_id" -> "player_id"))))
    assert(Enumerate.pkConnected(full, Nba.schemaGraph))
  }

  test("cost model: fan-out reflects relation size over NDV") {
    val cm = new Enumerate.CostModel(nba)
    val jg = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "team")),
      Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("winner_id" -> "team_id")))))
    // team joined on its key: fan-out exactly 1, so the estimate is |PT|.
    assert(cm.estimate(jg, ptRows = 100) == 100.0)
  }
  test("cost model: non-key joins blow up the estimate") {
    val cm = new Enumerate.CostModel(nba)
    val jg = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "player_game_stats")),
      Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("game_date" -> "game_date", "home_id" -> "home_id")))))
    val pgs = nba.relations("player_game_stats")
    val ndv = (0 until pgs.rows).map(i => Seq(pgs("game_date").key(i), pgs("home_id").key(i)))
      .filterNot(_.contains(null)).distinct.size
    assert(cm.estimate(jg, 100) == 100 * (pgs.rows.toDouble / ndv))
    // ~16 player rows per game → estimate well above |PT|.
    assert(cm.estimate(jg, 100) > 500)
  }
  test("cost model: a null key is no distinct value, and an empty relation has one") {
    import spark.implicits._
    val db = Database(Map(
      "s" -> Seq(Some(1), Some(1), Some(2), None).toDF("k"),
      "t" -> Seq((Some(1), Some(1)), (Some(1), None), (Some(2), Some(2))).toDF("k", "j"),
      "e" -> Seq.empty[Option[Int]].toDF("k")), sgSmall)
    val cm = new Enumerate.CostModel(db)
    def into(rel: String, cond: (String, String)*) = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, rel)), Vector(JGEdge(0, 1, Some("r1"), JoinCond(cond))))
    // 4 rows over the keys 1 and 2; 3 rows over (1, 1) and (2, 2).
    assert(cm.estimate(into("s", "k" -> "k"), 10) == 20.0)
    assert(cm.estimate(into("t", "k" -> "k", "k" -> "j"), 10) == 15.0)
    assert(cm.estimate(into("e", "k" -> "k"), 10) == 0.0)
  }

  test("enumerate produces Ω₀ first and respects maxEdges") {
    val params = Params(maxEdges = 1, maxJoinGraphs = 50)
    val graphs = Enumerate.enumerate(nba, Nba.qNba4, params, ptRows = 100)
    assert(graphs.head.edges.isEmpty)
    assert(graphs.tail.forall(_.edges.size == 1))
  }
  test("enumerate yields no duplicate canonical forms") {
    val params = Params(maxEdges = 2, maxJoinGraphs = 100)
    val graphs = Enumerate.enumerate(nba, Nba.qNba4, params, ptRows = 100)
    val keys = graphs.map(_.canonical)
    assert(keys.distinct.size == keys.size)
  }
  test("all enumerated graphs pass the PK-connectivity test") {
    val params = Params(maxEdges = 2, maxJoinGraphs = 100)
    val graphs = Enumerate.enumerate(nba, Nba.qNba4, params, ptRows = 100)
    assert(graphs.tail.forall(g => Enumerate.pkConnected(g, Nba.schemaGraph)))
  }
  test("λ_qCost cutoff drops expensive graphs") {
    val loose = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 1, qCostThreshold = 1e9), 100)
    val tight = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 1, qCostThreshold = 50), 100)
    assert(tight.size < loose.size)
  }
  test("maxJoinGraphs caps the enumeration") {
    val graphs = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 3, maxJoinGraphs = 10), 100)
    assert(graphs.size <= 10)
  }
  test("MIMIC enumeration reaches two-hop patient contexts") {
    val graphs = Enumerate.enumerate(mimic, Mimic.qMimicInsurance, Params(maxEdges = 2, maxJoinGraphs = 100), 100)
    val rels = graphs.flatMap(_.contextNodes.map(_.rel)).toSet
    assert(rels.contains("patients"))
    assert(rels.contains("icustays") || rels.contains("procedures") || rels.contains("diagnoses"))
  }
  test("join-graph count grows with λ_#edges (Figure 8's driver)") {
    val n1 = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 1, maxJoinGraphs = 1000), 100).size
    val n2 = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 2, maxJoinGraphs = 1000), 100).size
    assert(n2 > n1)
  }
}
