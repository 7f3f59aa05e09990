package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Augmented provenance tables (paper Section 2.3, Definition 4).
  *
  * Given a provenance table (with `pt_id`/`grp` bookkeeping columns) and a
  * join graph Ω, the APT is the equi-join of PT with one renamed copy of
  * each context node's relation, using the join conditions on Ω's edges.
  * Context node `i`'s columns are prefixed `a<i>_` — the aliasing required
  * by Definition 3 when a relation occurs several times.
  */
object Apt {

  /** Column prefix of context node `id`. */
  def ctxPrefix(id: Int): String = s"a${id}_"

  /** Materializes APT(Q, D, Ω) for the rows of `pt` (PT already restricted
    * to the user question, with `pt_id` and `grp`).
    *
    * Edges are applied in an order that keeps the intermediate result
    * connected (each edge touches at least one already-joined node); an
    * edge whose `toNode` is already present becomes a post-join filter —
    * that is how parallel edges between existing nodes are handled.
    */
  def materialize(db: Schema.Database, q: Query.QuerySpec, pt: DataFrame, jg: Schema.JoinGraph): DataFrame = {
    var joinedNodes = Set(0)
    edgeOrder(jg).foldLeft(pt) { (df, e) =>
      val cond = edgeCondition(q, e)
      if (joinedNodes(e.fromNode) && joinedNodes(e.toNode)) df.filter(cond)
      else {
        // Exactly one endpoint is new; by construction of ExtendJG the new
        // endpoint is always `toNode` (PT is never new).
        val newNode = if (joinedNodes(e.fromNode)) e.toNode else e.fromNode
        val raw = db(jg.relOf(newNode))
        val renamed = raw.columns.foldLeft(raw)((d, c) => d.withColumnRenamed(c, ctxPrefix(newNode) + c))
        joinedNodes += newNode
        df.join(renamed, cond, "inner")
      }
    }
  }

  /** Ω's edges in an order that keeps the joined nodes connected: each
    * edge touches the PT or a node of an edge before it, the first such
    * edge of those left coming next. Enumerated graphs are in this order
    * already.
    */
  def edgeOrder(jg: Schema.JoinGraph): Seq[Schema.JGEdge] = {
    var joined = Set(0)
    var pending = jg.edges
    Seq.fill(jg.edges.size) {
      val idx = pending.indexWhere(e => joined(e.fromNode) || joined(e.toNode))
      require(idx >= 0, s"join graph not connected: ${jg.describe}")
      val e = pending(idx)
      pending = pending.patch(idx, Nil, 1)
      joined ++= Seq(e.fromNode, e.toNode)
      e
    }
  }

  /** The Spark join condition for one join-graph edge. */
  private def edgeCondition(q: Query.QuerySpec, e: Schema.JGEdge): Column =
    e.cond.pairs.map { case (fa, ta) =>
      col(colName(q, e.fromNode, e.queryAlias, fa)) === col(colName(q, e.toNode, None, ta))
    }.reduce(_ && _)

  /** Resolves an attribute of a join-graph node to its APT column name. */
  def colName(q: Query.QuerySpec, node: Int, queryAlias: Option[String], attr: String): String =
    if (node == 0) q.provCol(queryAlias.getOrElse(q.aliases.head), attr)
    else ctxPrefix(node) + attr

  /** The mineable attribute columns of an APT: everything except
    * bookkeeping columns, the query's group-by attributes — *in every
    * aliased copy*, since a context join can re-expose the grouping
    * attribute (e.g. season_name via a season context node) and such
    * predicates merely restate the user question (Section 2.4) — and
    * surrogate-key columns (`*_id`), whose constants identify rows rather
    * than summarize them (the paper's explanations only ever use
    * human-readable attributes).
    */
  def patternColumns(apt: DataFrame, q: Query.QuerySpec): Seq[String] = patternColumns(apt.columns.toSeq, q)

  /** [[patternColumns]] among the APT columns `columns`, in their order. */
  def patternColumns(columns: Seq[String], q: Query.QuerySpec): Seq[String] = {
    val banned = Set("pt_id", "grp") ++ q.groupCols
    val bannedBase: Set[String] = q.groupBy.map(_._2).toSet
    columns.filterNot { c =>
      banned(c) || c.endsWith("_id") || bannedBase(baseName(q, c))
    }
  }

  /** Strips the `prov_<alias>_` / `a<i>_` prefix off an APT column. */
  def baseName(q: Query.QuerySpec, col: String): String = {
    val provPrefix = q.aliases.map(al => s"prov_${al}_").find(col.startsWith)
    provPrefix.map(col.stripPrefix) getOrElse {
      if (col.matches("a\\d+_.*")) col.replaceFirst("a\\d+_", "") else col
    }
  }
}
