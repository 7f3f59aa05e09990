package repro.core

import java.util.BitSet
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types.NumericType
import repro.core.Metrics.Table
import repro.core.Metrics.Table.Col
import scala.collection.mutable

/** Equi-joins on the driver: the question's provenance table from the
  * query's collected relations, and the APT of every join graph from its
  * parent graph's APT by one edge (paper §4, Algorithm 2's
  * ExtendJG/AddEdge).
  *
  * Spark's share of an `explain` is one collect per relation it needs.
  * The query's relations are collected with the query's filters, the
  * question's group-by values and the key sets of the relations collected
  * before them pushed into the collect: a semi-join reduction in one pass
  * along the query's joins (Yannakakis, VLDB 1981). Everything else works
  * on the columns of [[Metrics.Table]]: a node-adding edge is a hash join
  * of the parent APT's rows with the relation's rows, gathered through
  * `Col.subset`, and a parallel edge is a row filter. NULL never matches.
  * Numbers compare as `Double`, with −0.0 = 0.0 and NaN = NaN, as Spark
  * normalizes join keys; a key that is a number on one side and a string
  * on the other is rejected. [[Query.questionProvenance]] and
  * [[Apt.materialize]] compute the same tables in Spark and are kept as
  * the reference.
  */
object Join {

  /** A relation held on the driver: `rows` rows, one column per attribute,
    * in schema order.
    */
  final class Relation private (val rows: Int, columns: Seq[(String, Col)]) {
    private val byName = columns.toMap
    private val indexes = mutable.HashMap.empty[Seq[String], collection.Map[Any, Array[Int]]]

    def names: Seq[String] = columns.map(_._1)
    def apply(attr: String): Col =
      byName.getOrElse(attr, throw new IllegalArgumentException(s"no attribute $attr"))

    /** The rows of each non-null key over `attrs`; built once per key. */
    def index(attrs: Seq[String]): collection.Map[Any, Array[Int]] =
      indexes.getOrElseUpdate(attrs, Join.index(attrs.map(apply), Iterator.range(0, rows)))
  }

  object Relation {
    /** Collects `df` to the driver, in one Spark job. A column that is
      * neither numeric nor a string is held as the strings of its values.
      */
    def collect(df: DataFrame): Relation = {
      val raw = df.collect()
      new Relation(raw.length, df.schema.fields.toSeq.zipWithIndex.map { case (f, j) =>
        f.name -> Col(raw.map(_.get(j)), f.dataType.isInstanceOf[NumericType])
      })
    }
  }

  /** The relations of `db` that one `explain` reads, each collected at most
    * once: whole, or restricted by a predicate when nothing else in the
    * call reads that relation. Asking for the whole of a relation that was
    * collected restricted fails.
    */
  final class Relations(db: Schema.Database) {
    private val collected = mutable.HashMap.empty[String, (Relation, Boolean)]

    /** `rel`, every row. */
    def apply(rel: String): Relation = {
      val (r, restricted) = collected.getOrElseUpdate(rel, (Relation.collect(db(rel)), false))
      if (restricted) throw new IllegalStateException(s"relation $rel was collected restricted")
      r
    }

    /** The rows of `rel` that satisfy `pred`, or every row if `pred` is
      * empty. `rel` must not be collected yet.
      */
    def restricted(rel: String, pred: Option[Column]): Relation = pred match {
      case None => apply(rel)
      case Some(p) =>
        require(!collected.contains(rel), s"relation $rel is collected already")
        val r = Relation.collect(db(rel).filter(p))
        collected(rel) = (r, true)
        r
    }
  }

  /** The APTs of one user question, held on the driver, over the PT
    * `table` with its λ_F1-samp flags set ([[f1Flags]]). The APT of a join
    * graph is built from the APT of its parent, the graph without its last
    * edge, and every APT is memoized, so a graph costs one hash join or
    * filter once its parent exists. Tables keep every column, the join
    * keys included; mining projects them onto [[Apt.patternColumns]].
    */
  final class Apts private (val q: Query.QuerySpec, table: Table, relations: Relations, params: Params) {
    val pt: Table = table.withFlags(f1Flags(table, params))
    private val memo = mutable.HashMap[Schema.JoinGraph, Table](Schema.JoinGraph.empty -> pt)

    /** |PT(t1)|, |PT(t2)| and their λ_F1-samp counterparts: the PT tuples,
      * and the flagged PT tuples, of each group.
      */
    lazy val sizes: Mine.QuestionSizes = {
      val Seq(all) = pt.coverage(Seq(Pattern.Pattern.empty))
      val Seq(sampled) = pt.flagged.coverage(Seq(Pattern.Pattern.empty))
      Mine.QuestionSizes(all.cov1, all.cov2, sampled.cov1, sampled.cov2)
    }

    /** APT(Q, D, Ω) of the question's PT, with the rows and columns that
      * [[Apt.materialize]] gives, t1's rows first.
      */
    def apply(jg: Schema.JoinGraph): Table = {
      var nodes = Set(0)
      var edges = Vector.empty[Schema.JGEdge]
      Apt.edgeOrder(jg).foldLeft(pt) { (parent, e) =>
        val added = Seq(e.fromNode, e.toNode).find(!nodes(_))
        nodes ++= added
        edges :+= e
        memo.getOrElseUpdate(Schema.JoinGraph(jg.nodes.filter(n => nodes(n.id)), edges), extend(parent, e, added, jg))
      }
    }

    private def extend(parent: Table, e: Schema.JGEdge, added: Option[Int], jg: Schema.JoinGraph): Table = {
      val from = e.cond.pairs.map { case (a, _) => Apt.colName(q, e.fromNode, e.queryAlias, a) }
      val to = e.cond.pairs.map { case (_, b) => Apt.colName(q, e.toNode, None, b) }
      added match {
        case None =>
          val (l, r) = (from.map(parent.column), to.map(parent.column))
          checkKeys(from.zip(to), l, r)
          parent.gather((0 until parent.rows).filter { i => val k = key(l, i); k != null && k == key(r, i) }.toArray, Nil)
        case Some(node) =>
          val rel = relations(jg.relOf(node))
          val (known, fresh) =
            if (node == e.toNode) (from, e.cond.pairs.map(_._2))
            else (to, e.cond.pairs.map(_._1))
          val left = known.map(parent.column)
          checkKeys(known.zip(fresh), left, fresh.map(rel(_)))
          val (p, r) = probe(parent.rows, key(left, _), rel.index(fresh))
          parent.gather(p, rel.names.map(a => (Apt.ctxPrefix(node) + a) -> rel(a).subset(r)))
      }
    }
  }

  object Apts {

    /** The APTs of `uq` as `explain` builds them: the PT is built on the
      * driver from the query's relations ([[provenance]]), and a query
      * relation that no mined join graph can use as a context node is
      * collected restricted to the rows the question can reach.
      */
    def apply(db: Schema.Database, q: Query.QuerySpec, uq: Query.UserQuestion, params: Params): Apts = {
      val relations = new Relations(db)
      val context = Enumerate.contextRelations(db.schemaGraph, q, params)
      val once = q.tables.groupBy(_._1).collect { case (rel, Seq(_)) => rel }.toSet
      new Apts(q, provenance(relations, q, uq, rel => once(rel) && !context(rel)), relations, params)
    }

    /** The APTs over `pt`, a question's provenance computed in Spark (a
      * frame with the prov_ columns, `pt_id` and `grp`), collected in one
      * Spark job.
      */
    def apply(db: Schema.Database, q: Query.QuerySpec, pt: DataFrame, params: Params): Apts =
      new Apts(q, Table.collect(pt, pt.columns.toSeq.filterNot(Set("pt_id", "grp"))), new Relations(db), params)
  }

  /** The λ_F1-samp flags of a PT: a PT tuple is in the sample when its
    * [[Metrics.Table.rowHashes]] hash over all its prov_ values, seeded
    * with `params.seed`, falls below λ_F1-samp of the range mod 10 000. The APT
    * rows of a PT tuple inherit its flag, so they are kept or dropped
    * together; the flag depends on the tuple's values only, not on the
    * PT's layout or `pt_id`s.
    */
  private def f1Flags(pt: Table, params: Params): BitSet = {
    val flags = new BitSet(pt.rows)
    if (params.f1SampleRate >= 1.0) flags.set(0, pt.rows)
    else {
      val cut = (params.f1SampleRate * 10000).toInt
      pt.rowHashes(pt.names, params.seed.toInt, 0, pt.rows).zipWithIndex.foreach { case (h, i) =>
        if (Math.floorMod(h, 10000) < cut) flags.set(i)
      }
    }
    flags
  }

  /** PT(Q, D) restricted to the question, as [[Query.questionProvenance]]
    * computes it: the query's filtered join, its columns named
    * `prov_<alias>_<attr>` in the order of `q.tables` and of each
    * relation's schema, t1's rows first, no row flagged. `pt_id` is the
    * row's position.
    * The aliases are joined starting with the one that the filters and the
    * question constrain most, each next one joined to those before it if
    * the query joins it to any. A relation for which `restrict` holds is
    * collected with the [[pushdown]] predicate of its alias; the driver
    * applies every filter, join condition and question value itself, so a
    * pushed-down predicate only saves transfer. Rejects a malformed
    * question as [[Query.provenanceTable]] does.
    */
  def provenance(relations: Relations, q: Query.QuerySpec, uq: Query.UserQuestion,
                 restrict: String => Boolean): Table = {
    Query.check(q, uq)
    val order = mutable.ArrayBuffer(q.aliases.maxBy(al =>
      q.filters.count(_.alias == al) + uq.tuples.map(_._2.keys.count(aliasOf(q, _)._1 == al)).sum))
    while (order.size < q.aliases.size) {
      val rest = q.aliases.filterNot(order.contains)
      order += rest.find(joinsTo(q, _, order.toSeq).nonEmpty).getOrElse(rest.head)
    }

    // The join so far: for each alias joined, the relation row of each
    // joined row. One row of no alias to start with.
    val rel = mutable.HashMap.empty[String, Relation]
    var rows = Map.empty[String, Array[Int]]
    var n = 1
    for (al <- order) {
      val joins = joinsTo(q, al, order.takeWhile(_ != al).toSeq)
      val left = joins.map { case (b, ba, _) => (rel(b)(ba), rows(b)) }
      val r = relations.restricted(q.relOfAlias(al),
        if (!restrict(q.relOfAlias(al))) None
        else pushdown(q, uq, al, joins.zip(left).map { case ((_, _, a), (c, rs)) =>
          a -> rs.iterator.filter(c.key(_) != null).map(c.literal).toSeq.distinct }))
      val right = joins.map { case (_, _, a) => r(a) }
      checkKeys(joins.map { case (b, ba, a) => (q.provCol(b, ba), q.provCol(al, a)) }, left.map(_._1), right)
      val kept = q.filters.filter(_.alias == al).foldLeft(all(r.rows)) { (b, f) =>
        b.and(equalTo(r(f.attr), f.value)); b
      }
      val (p, m) = probe(n, i => key(left.map { case (c, rs) => c.key(rs(i)) }),
        index(right, Iterator.range(0, r.rows).filter(kept.get)))
      rows = rows.map { case (b, rs) => b -> p.map(rs) } + (al -> m)
      rel(al) = r
      n = p.length
    }

    // The question: t1's rows, then t2's; other rows are not part of it.
    // Conditions between two attributes of one alias filter its rows.
    def matches(t: Map[String, String]): Int => Boolean = {
      val tests = t.toSeq.map { case (c, v) =>
        val (al, a) = aliasOf(q, c)
        val bits = equalTo(rel(al)(a), v)
        (i: Int) => bits.get(rows(al)(i))
      }
      i => tests.forall(_(i))
    }
    val selfJoined: Int => Boolean = i => q.joins.forall { case ((a1, c1), (a2, c2)) =>
      a1 != a2 || { val k = rel(a1)(c1).key(rows(a1)(i)); k != null && k == rel(a1)(c2).key(rows(a1)(i)) }
    }
    val isT1 = matches(uq.tuples.head._2)
    val isT2: Int => Boolean = uq match {
      case Query.TwoPoint(_, t2) => matches(t2)
      case Query.SinglePoint(_) => _ => true
    }
    val (t1, rest) = (0 until n).filter(selfJoined).partition(isT1)
    val ptRows = (t1 ++ rest.filter(isT2)).toArray
    new Table(Array.tabulate(ptRows.length)(_.toLong), t1.size,
      q.tables.toVector.flatMap { case (_, al) =>
        val rs = ptRows.map(rows(al))
        rel(al).names.map(a => q.provCol(al, a) -> rel(al)(a).subset(rs))
      }, new BitSet)
  }

  /** The predicate pushed into the collect of alias `al`'s relation: the
    * alias's filters; the question's group-by values on `al`, when every
    * tuple of a two-point question constrains `al` (a single-point
    * question's t2 is every other tuple); and for each attribute in
    * `keySets`, its values among the rows joined so far.
    */
  private def pushdown(q: Query.QuerySpec, uq: Query.UserQuestion, al: String,
                       keySets: Seq[(String, Seq[Any])]): Option[Column] = {
    val filters = q.filters.filter(_.alias == al).map(f => col(f.attr) === lit(f.value))
    val question = uq match {
      case Query.TwoPoint(t1, t2) =>
        val perTuple = Seq(t1, t2).map(_.toSeq.collect {
          case (c, v) if aliasOf(q, c)._1 == al => col(aliasOf(q, c)._2) === lit(v)
        })
        if (perTuple.exists(_.isEmpty)) None else Some(perTuple.map(_.reduce(_ && _)).reduce(_ || _))
      case Query.SinglePoint(_) => None
    }
    val semiJoins = keySets.map { case (a, values) => col(a).isInCollection(values) }
    (filters ++ question ++ semiJoins).reduceOption(_ && _)
  }

  /** The (alias, attribute) of group-by column `c`. */
  private def aliasOf(q: Query.QuerySpec, c: String): (String, String) =
    q.groupBy.find { case (al, a) => q.provCol(al, a) == c }.get

  /** The query's join conditions between `al` and the aliases `before`, as
    * (alias before, its attribute, attribute of `al`).
    */
  private def joinsTo(q: Query.QuerySpec, al: String, before: Seq[String]): Seq[(String, String, String)] =
    q.joins.collect {
      case ((a1, c1), (a2, c2)) if a1 == al && before.contains(a2) => (a2, c2, c1)
      case ((a1, c1), (a2, c2)) if a2 == al && before.contains(a1) => (a1, c1, c2)
    }

  /** The rows of `c` equal to the constant `v` of a filter or a question. */
  private def equalTo(c: Col, v: String): BitSet = c.matching(Pattern.Pred("", Pattern.OpEq, c.constant(v)))

  /** A join key from the keys of its attributes (see `Col.key`): null when
    * any is null.
    */
  private def key(cells: Seq[Any]): Any =
    if (cells.size == 1) cells.head else if (cells.contains(null)) null else cells

  private def key(cols: Seq[Col], i: Int): Any = key(cols.map(_.key(i)))

  /** The rows among `rows` under each non-null key over `cols`. */
  private def index(cols: Seq[Col], rows: Iterator[Int]): collection.Map[Any, Array[Int]] = {
    val b = mutable.HashMap.empty[Any, mutable.ArrayBuilder.ofInt]
    rows.foreach { j =>
      val k = key(cols, j)
      if (k != null) b.getOrElseUpdate(k, new mutable.ArrayBuilder.ofInt) += j
    }
    b.map { case (k, js) => k -> js.result() }
  }

  /** The pairs (i, j) of rows i < n of the left side and rows j of `index`
    * under the key of i: in order of i, then of j.
    */
  private def probe(n: Int, key: Int => Any, index: collection.Map[Any, Array[Int]]): (Array[Int], Array[Int]) = {
    val l, r = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < n) {
      val k = key(i)
      if (k != null) index.get(k).foreach(_.foreach { j => l += i; r += j })
      i += 1
    }
    (l.result(), r.result())
  }

  /** Rejects a key pair that compares a number with a string: Spark would
    * cast one side, and which way depends on its settings.
    */
  private def checkKeys(names: Seq[(String, String)], l: Seq[Col], r: Seq[Col]): Unit =
    names.zip(l.zip(r)).foreach { case ((a, b), (x, y)) =>
      if (x.numeric != y.numeric)
        throw new IllegalArgumentException(
          s"join key $a = $b compares a ${if (x.numeric) "number" else "string"} with a ${if (y.numeric) "number" else "string"}")
    }

  private def all(n: Int): BitSet = { val b = new BitSet(n); b.set(0, n); b }
}
