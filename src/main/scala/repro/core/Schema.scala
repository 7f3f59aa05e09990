package repro.core

import org.apache.spark.sql.DataFrame

/** Schema-graph and join-graph model (paper Section 2.2).
  *
  * A [[SchemaGraph]] encodes which equi-joins are permissible between the
  * relations of a database: nodes are relations, edges carry a set of
  * candidate [[JoinCond]]s (Definition 2). A [[JoinGraph]] is one concrete
  * way of augmenting the provenance table with context relations
  * (Definition 3): a multigraph with a distinguished PT node (id 0) and
  * context nodes labeled with relations.
  */
object Schema {

  /** One equi-join condition between two relations: a conjunction of
    * attribute equalities. `pairs` are (attr-in-left-relation,
    * attr-in-right-relation), where left/right refer to the orientation
    * given by [[SchemaEdge.relA]]/[[SchemaEdge.relB]].
    */
  final case class JoinCond(pairs: Seq[(String, String)]) {
    /** The same condition viewed from the opposite orientation. */
    def flipped: JoinCond = JoinCond(pairs.map { case (a, b) => (b, a) })
    def render(l: String, r: String): String =
      pairs.map { case (a, b) => s"$l.$a=$r.$b" }.mkString(" AND ")
  }

  /** Metadata for one relation in the database: its frame plus the primary
    * key used by the IsValid connectivity check (Section 4).
    */
  final case class RelMeta(name: String, primaryKey: Seq[String])

  /** Undirected edge of the schema graph between `relA` and `relB`, labeled
    * with the set of permissible join conditions (`l_Sedge`).
    */
  final case class SchemaEdge(relA: String, relB: String, conds: Seq[JoinCond])

  /** Schema graph G = (V_S, E_S, l_Sedge) together with relation metadata. */
  final case class SchemaGraph(rels: Map[String, RelMeta], edges: Seq[SchemaEdge]) {
    /** All (neighborRelation, conditionOrientedFromRel) choices reachable
      * from `rel` — both edge orientations are considered since G is
      * undirected.
      */
    def adjacent(rel: String): Seq[(String, JoinCond)] =
      edges.flatMap { e =>
        val a = if (e.relA == rel) e.conds.map(c => (e.relB, c)) else Nil
        val b = if (e.relB == rel) e.conds.map(c => (e.relA, c.flipped)) else Nil
        a ++ b
      }

    def primaryKey(rel: String): Seq[String] =
      rels.get(rel).map(_.primaryKey).getOrElse(Nil)
  }

  /** A node of a join graph. Node id 0 is always the PT node (`rel` is the
    * literal string "PT"); context nodes carry the relation they are labeled
    * with. The same relation may label several nodes (self-joins and
    * parallel context copies), disambiguated by id.
    */
  final case class JGNode(id: Int, rel: String) {
    def isPt: Boolean = id == 0
  }

  /** An edge of a join graph. `fromNode`/`toNode` are node ids; when
    * `fromNode == 0` (the PT node) `queryAlias` names the base-query alias
    * whose columns the left side of `cond` refers to. `cond` pairs are
    * (attr-in-from-relation, attr-in-to-relation).
    */
  final case class JGEdge(fromNode: Int, toNode: Int, queryAlias: Option[String], cond: JoinCond)

  /** Join graph Ω = (V_J, E_J, l_Jnode, l_Jedge); nodes(0) is the PT node. */
  final case class JoinGraph(nodes: Vector[JGNode], edges: Vector[JGEdge]) {
    def contextNodes: Seq[JGNode] = nodes.filterNot(_.isPt)
    def size: Int = edges.size

    def relOf(id: Int): String = nodes(id).rel

    /** Human-readable structure like `PT - player_salary - player`. */
    def describe: String =
      if (edges.isEmpty) "PT"
      else edges.map { e =>
        val l = if (e.fromNode == 0) s"PT(${e.queryAlias.getOrElse("?")})" else s"${relOf(e.fromNode)}#${e.fromNode}"
        s"$l-[${e.cond.pairs.map { case (a, b) => s"$a=$b" }.mkString(",")}]->${relOf(e.toNode)}#${e.toNode}"
      }.mkString(" ; ")

    /** Canonical signature used to deduplicate isomorphic join graphs: we
      * brute-force all relabelings of the (few) context nodes and take the
      * lexicographically smallest edge-multiset rendering. Sound for the
      * small graphs (≤ λ_#edges ≤ 4 context nodes) enumerated here.
      */
    def canonical: String = {
      val ctx = contextNodes.map(_.id)
      ctx.permutations.map { perm =>
        val remap: Map[Int, Int] =
          Map(0 -> 0) ++ perm.zipWithIndex.map { case (id, i) => id -> (i + 1) }
        val nodeSig = nodes.map(n => s"${remap(n.id)}:${n.rel}").sorted.mkString(",")
        val edgeSig = edges.map { e =>
          val f = remap(e.fromNode); val t = remap(e.toNode)
          val cond = e.cond.pairs.map { case (a, b) => s"$a=$b" }.mkString("&")
          val al = e.queryAlias.getOrElse("")
          if (f <= t) s"$f-$t:$al:$cond" else s"$t-$f:$al:${e.cond.flipped.pairs.map { case (a, b) => s"$a=$b" }.mkString("&")}"
        }.sorted.mkString(";")
        s"$nodeSig|$edgeSig"
      }.min
    }
  }

  object JoinGraph {
    /** Ω₀ — the join graph consisting of just the PT node. */
    val empty: JoinGraph = JoinGraph(Vector(JGNode(0, "PT")), Vector.empty)
  }

  /** A database instance: named relations plus the schema graph. */
  final case class Database(tables: Map[String, DataFrame], schemaGraph: SchemaGraph) {
    def apply(name: String): DataFrame = tables(name)

    /** The relations `explain` reads, each collected whole once per
      * instance, on the first call that reads it: the PT, the APTs and the
      * join-graph cost model all read them, so a later `explain` on it
      * launches no Spark job.
      */
    lazy val relations: Join.Relations = new Join.Relations(this)
  }
}
