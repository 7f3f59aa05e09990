package repro.core

import repro.core.Schema._

/** Join-graph enumeration (paper Algorithm 2, Section 4).
  *
  * Graphs are generated level-wise: every graph of size i spawns all
  * one-edge extensions (new context node, or a new parallel edge between
  * existing nodes), constrained by the schema graph. Generated graphs are
  * deduplicated up to context-node relabeling, then filtered by ISVALID:
  * the primary-key connectivity test plus an estimated-cost cutoff
  * (λ_qCost) standing in for the paper's DBMS cost estimate.
  */
object Enumerate {

  /** Cheap cardinality model replacing the DBMS optimizer estimate: the
    * expected APT size is |PT| times the fan-out of every node-adding join,
    * where fan-out of joining into relation S on attributes A is
    * |S| / ndv(S, A). Relation sizes and NDVs are computed once and cached;
    * `enumerate` uses the one model of each database, `db.costModel`.
    */
  final class CostModel(db: Database) {
    private val rowCounts = scala.collection.mutable.Map.empty[String, Long]
    private val ndvCache = scala.collection.mutable.Map.empty[(String, Seq[String]), Long]

    def rows(rel: String): Long = synchronized {
      rowCounts.getOrElseUpdate(rel, db(rel).count())
    }

    def ndv(rel: String, attrs: Seq[String]): Long = synchronized {
      ndvCache.getOrElseUpdate((rel, attrs.sorted), {
        import org.apache.spark.sql.functions.{approx_count_distinct, concat_ws, col}
        val c = db(rel).agg(approx_count_distinct(concat_ws("§", attrs.map(col): _*))).head().getLong(0)
        math.max(1L, c)
      })
    }

    /** Estimated APT rows for `jg` given |PT| = ptRows. */
    def estimate(jg: JoinGraph, ptRows: Long): Double = {
      var seen = Set(0)
      var est = ptRows.toDouble
      jg.edges.foreach { e =>
        if (!seen(e.toNode)) {
          val rel = jg.relOf(e.toNode)
          val toAttrs = e.cond.pairs.map(_._2)
          est *= rows(rel).toDouble / ndv(rel, toAttrs)
          seen += e.toNode
        }
        // Parallel edges between existing nodes only filter — estimate is
        // left as an upper bound.
      }
      est
    }
  }

  /** EXTENDJG: all one-edge extensions of `jg` permitted by the schema
    * graph. PT extension points range over every query alias.
    */
  def extend(jg: JoinGraph, sg: SchemaGraph, q: Query.QuerySpec): Seq[JoinGraph] =
    jg.nodes.flatMap { v =>
      val anchorRels: Seq[(String, Option[String])] =
        if (v.isPt) q.tables.map { case (rel, alias) => (rel, Some(alias)) }
        else Seq((v.rel, None))
      anchorRels.flatMap { case (rel, alias) =>
        sg.adjacent(rel).flatMap { case (end, cond) =>
          addEdge(jg, v.id, alias, end, cond)
        }
      }
    }

  /** ADDEDGE: connect node `v` to a fresh node labeled `end`, and to every
    * existing node labeled `end` not already connected by the same
    * condition (no duplicate parallel edges, no self-loops).
    */
  def addEdge(jg: JoinGraph, v: Int, queryAlias: Option[String], end: String, cond: JoinCond): Seq[JoinGraph] = {
    val fresh = {
      val id = jg.nodes.size
      jg.copy(
        nodes = jg.nodes :+ JGNode(id, end),
        edges = jg.edges :+ JGEdge(v, id, queryAlias, cond),
      )
    }
    val existing = jg.nodes.filter(n => !n.isPt && n.id != v && n.rel == end).flatMap { n =>
      val dup = jg.edges.exists { e =>
        val same = (e.fromNode == v && e.toNode == n.id && e.cond == cond && e.queryAlias == queryAlias) ||
          (e.fromNode == n.id && e.toNode == v && e.cond == cond.flipped)
        same
      }
      if (dup) None
      else Some(jg.copy(edges = jg.edges :+ JGEdge(v, n.id, queryAlias, cond)))
    }
    fresh +: existing
  }

  /** ISVALID's primary-key connectivity test: every context node must join
    * on all primary-key attributes of its relation (Section 4's guard
    * against redundant, blown-up APTs).
    */
  def pkConnected(jg: JoinGraph, sg: SchemaGraph): Boolean =
    jg.contextNodes.forall { n =>
      val pk = sg.primaryKey(n.rel)
      val joinedAttrs: Set[String] = jg.edges.flatMap { e =>
        val from = if (e.fromNode == n.id) e.cond.pairs.map(_._1) else Nil
        val to = if (e.toNode == n.id) e.cond.pairs.map(_._2) else Nil
        from ++ to
      }.toSet
      pk.forall(joinedAttrs)
    }

  /** The relations that can label a context node of a graph [[enumerate]]
    * returns: those within λ_#edges schema-graph hops of a query relation,
    * or none when `maxJoinGraphs` leaves room for Ω₀ only.
    */
  def contextRelations(sg: SchemaGraph, q: Query.QuerySpec, params: Params): Set[String] =
    if (params.maxJoinGraphs <= 1) Set.empty
    else Iterator.iterate(q.tables.map(_._1).toSet)(_.flatMap(r => sg.adjacent(r).map(_._1)))
      .slice(1, params.maxEdges + 1).foldLeft(Set.empty[String])(_ ++ _)

  /** Enumerates all distinct, valid join graphs with 1..λ_#edges edges,
    * capped at `params.maxJoinGraphs` (cheapest first within a level).
    * Ω₀ (PT alone) is always first — provenance-only explanations come
    * from it.
    */
  def enumerate(db: Database, q: Query.QuerySpec, params: Params, ptRows: Long): Seq[JoinGraph] = {
    val sg = db.schemaGraph
    val cost = db.costModel
    val seen = scala.collection.mutable.Set.empty[String]
    val out = scala.collection.mutable.ArrayBuffer[JoinGraph](JoinGraph.empty)
    var prev: Seq[JoinGraph] = Seq(JoinGraph.empty)
    var size = 1
    while (size <= params.maxEdges && out.size < params.maxJoinGraphs) {
      val next = scala.collection.mutable.ArrayBuffer.empty[JoinGraph]
      prev.foreach { g =>
        extend(g, sg, q).foreach { cand =>
          val key = cand.canonical
          if (!seen(key)) {
            seen += key
            next += cand
          }
        }
      }
      val valid = next.filter(g => pkConnected(g, sg) && cost.estimate(g, ptRows) <= params.qCostThreshold)
      valid.sortBy(g => cost.estimate(g, ptRows)).foreach { g =>
        if (out.size < params.maxJoinGraphs) out += g
      }
      prev = next.toSeq // invalid graphs may still grow into valid ones
      size += 1
    }
    out.toSeq
  }
}
