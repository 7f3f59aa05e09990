package repro.core

import java.util.BitSet
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.NumericType
import repro.core.Metrics.Table
import repro.core.Metrics.Table.Col
import scala.collection.mutable

/** Equi-joins on the driver: the question's provenance table from the
  * query's relations, and the APT of every join graph from its parent
  * graph's by one edge (paper §2.1, §2.3, §4's ExtendJG/AddEdge).
  *
  * Spark's share of `explain` is one collect per relation per database:
  * the first call that reads a relation collects it whole
  * ([[Schema.Database.relations]]), and every later call on that database
  * reads the held columns and launches no Spark job. The PT and every APT
  * are one kind of driver join, [[Joined]]: a condition to a new source is
  * a [[probe]] of its relation's key index, a condition between sources
  * already joined an [[equalKeys]] filter, and the columns are gathered
  * once, through `Col.subset`. NULL never matches. Numbers compare as
  * `Double`, with −0.0 = 0.0 and NaN = NaN, as Spark normalizes join keys;
  * a key that is a number on one side and a string on the other is
  * rejected. [[Query.questionProvenance]] and [[Apt.materialize]] compute
  * the same tables in Spark and are kept as the reference.
  */
object Join {

  /** A relation held on the driver: `rows` rows, one column per attribute,
    * in schema order. Its columns never change; safe to share between
    * threads.
    */
  final class Relation private (val rows: Int, columns: Seq[(String, Col)]) {
    private val byName = columns.toMap
    private val indexes = mutable.HashMap.empty[Seq[String], collection.Map[Any, Array[Int]]]

    def names: Seq[String] = columns.map(_._1)
    def apply(attr: String): Col =
      byName.getOrElse(attr, throw new IllegalArgumentException(s"no attribute $attr"))

    /** The rows of each non-null key over `attrs`, ascending; built once
      * per key.
      */
    def index(attrs: Seq[String]): collection.Map[Any, Array[Int]] = synchronized {
      indexes.getOrElseUpdate(attrs, Join.index(attrs.map(apply), rows))
    }
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

  /** The relations of `db` held on the driver, each collected whole the
    * first time it is read and kept. One instance per database
    * ([[Schema.Database.relations]]), shared by the threads that call
    * `explain` on it: each relation is collected once.
    */
  final class Relations(db: Schema.Database) {
    private val collected = mutable.HashMap.empty[String, Relation]

    def apply(rel: String): Relation = synchronized {
      collected.getOrElseUpdate(rel, Relation.collect(db(rel)))
    }
  }

  /** The APTs of one user question, held on the driver, over the PT
    * `table` with its λ_F1-samp flags set ([[f1Flags]]). The memo holds
    * each join graph's [[Joined]] rows, built from its parent's (the graph
    * without its last edge) by one probe or filter; a graph's columns are
    * gathered when it is asked for. Tables keep every column, the join
    * keys included; mining projects them onto [[Apt.patternColumns]].
    */
  final class Apts private (val q: Query.QuerySpec, table: Table, relations: Relations, params: Params) {
    private val flags = f1Flags(table, params)
    val pt: Table = table.withFlags(flags)
    private val memo = mutable.HashMap[Schema.JoinGraph, Joined[Int]](
      Schema.JoinGraph.empty -> Joined(pt.rows, Vector(0 -> Array.range(0, pt.rows))))

    /** |PT(t1)|, |PT(t2)| and their λ_F1-samp counterparts: the PT tuples,
      * and the flagged PT tuples, of each group. The PT has one row per PT
      * tuple, so these are counts of its rows and of its flags.
      */
    val sizes: Mine.QuestionSizes = {
      require((1 until pt.rows).forall(i => pt.ptIds(i) != pt.ptIds(i - 1)), "a PT has one row per pt_id")
      val s1 = flags.get(0, pt.t1Rows).cardinality
      Mine.QuestionSizes(pt.t1Rows, pt.rows - pt.t1Rows, s1, flags.cardinality - s1)
    }

    /** APT(Q, D, Ω) of the question's PT, with the rows and columns that
      * [[Apt.materialize]] gives, t1's rows first; `pt` itself for Ω₀.
      */
    def apply(jg: Schema.JoinGraph): Table =
      if (jg.edges.isEmpty) pt
      else {
        val j = joined(jg)
        pt.gather(j(0), j.rows.tail.flatMap { case (node, rs) =>
          val rel = relations(jg.relOf(node))
          rel.names.map(a => (Apt.ctxPrefix(node) + a) -> rel(a).subset(rs))
        })
      }

    private def joined(jg: Schema.JoinGraph): Joined[Int] = {
      var nodes = Set(0)
      var edges = Vector.empty[Schema.JGEdge]
      Apt.edgeOrder(jg).foldLeft(memo(Schema.JoinGraph.empty)) { (parent, e) =>
        val added = Seq(e.fromNode, e.toNode).find(!nodes(_))
        nodes ++= added
        edges :+= e
        memo.getOrElseUpdate(Schema.JoinGraph(jg.nodes.filter(n => nodes(n.id)), edges), extend(parent, e, added, jg))
      }
    }

    private def extend(parent: Joined[Int], e: Schema.JGEdge, added: Option[Int], jg: Schema.JoinGraph): Joined[Int] = {
      // An endpoint of the edge: its attributes' APT column names and, for
      // a node already joined, their columns over the parent's rows.
      final case class End(node: Int, alias: Option[String], attrs: Seq[String]) {
        def names: Seq[String] = attrs.map(Apt.colName(q, node, alias, _))
        def columns: Seq[(Col, Array[Int])] = attrs.zip(names).map { case (a, c) =>
          (if (node == 0) pt.column(c) else relations(jg.relOf(node))(a), parent(node))
        }
      }
      val from = End(e.fromNode, e.queryAlias, e.cond.pairs.map(_._1))
      val to = End(e.toNode, None, e.cond.pairs.map(_._2))
      added match {
        case None => equalKeys(parent, from.names.zip(to.names), from.columns, to.columns)
        case Some(node) =>
          val (known, fresh) = if (node == e.toNode) (from, to) else (to, from)
          probe(parent, node, known.names.zip(fresh.attrs), known.columns, relations(jg.relOf(node)), fresh.attrs, null)
      }
    }
  }

  object Apts {

    /** The APTs of `uq` as `explain` builds them, over the PT built on the
      * driver from the query's relations ([[provenance]]).
      */
    def apply(db: Schema.Database, q: Query.QuerySpec, uq: Query.UserQuestion, params: Params): Apts =
      new Apts(q, provenance(db.relations, q, uq), db.relations, params)

    /** The APTs over `pt`, a question's provenance computed in Spark (a
      * frame with the prov_ columns, `pt_id` and `grp`), collected in one
      * Spark job.
      */
    def apply(db: Schema.Database, q: Query.QuerySpec, pt: DataFrame, params: Params): Apts =
      new Apts(q, Table.collect(pt, pt.columns.toSeq.filterNot(Set("pt_id", "grp"))), db.relations, params)
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
      val hashes = pt.rowHashes(pt.names, params.seed.toInt, 0, pt.rows)
      var i = 0
      while (i < hashes.length) { if (Math.floorMod(hashes(i), 10000) < cut) flags.set(i); i += 1 }
    }
    flags
  }

  /** PT(Q, D) restricted to the question, as [[Query.questionProvenance]]
    * computes it: the query's filtered join, its columns named
    * `prov_<alias>_<attr>` in the order of `q.tables` and of each
    * relation's schema, t1's rows first, no row flagged. `pt_id` is the
    * row's position.
    * The aliases are joined starting with the one that the filters and the
    * question constrain most, each next one probed on its conditions with
    * those before it (on none if there are none); only the rows that pass
    * its filters are joined. Conditions between two attributes of one
    * alias filter the result. t1 and t2 are patterns over the joined rows'
    * group-by columns; the other columns are gathered over their rows only.
    * Rejects a malformed question as [[Query.provenanceTable]] does.
    */
  def provenance(relations: Relations, q: Query.QuerySpec, uq: Query.UserQuestion): Table = {
    Query.check(q, uq)
    val order = mutable.ArrayBuffer(q.aliases.maxBy(al =>
      q.filters.count(_.alias == al) + uq.tuples.map(_._2.keys.count(aliasOf(q, _)._1 == al)).sum))
    while (order.size < q.aliases.size) {
      val rest = q.aliases.filterNot(order.contains)
      order += rest.find(joinsTo(q, _, order.toSeq).nonEmpty).getOrElse(rest.head)
    }
    val rel = order.map(al => al -> relations(q.relOfAlias(al))).toMap
    def column(j: Joined[String], al: String, a: String): (Col, Array[Int]) = (rel(al)(a), j(al))

    // One row of no alias to start with.
    var j = Joined[String](1, Vector.empty)
    for (al <- order) {
      val joins = joinsTo(q, al, order.takeWhile(_ != al).toSeq)
      val kept = q.filters.filter(_.alias == al).map(f => equalTo(rel(al)(f.attr), f.value))
        .reduceOption { (a, b) => a.and(b); a }.orNull
      j = probe(j, al, joins.map { case (b, ba, a) => (q.provCol(b, ba), q.provCol(al, a)) },
        joins.map { case (b, ba, _) => column(j, b, ba) }, rel(al), joins.map(_._3), kept)
    }
    val same = q.joins.filter { case ((a1, _), (a2, _)) => a1 == a2 }
    if (same.nonEmpty)
      j = equalKeys(j, same.map { case ((a1, c1), (a2, c2)) => (q.provCol(a1, c1), q.provCol(a2, c2)) },
        same.map { case ((al, c), _) => column(j, al, c) }, same.map { case (_, (al, c)) => column(j, al, c) })

    // The question: t1's rows, then t2's; other rows are not part of it.
    val asked = uq.tuples.flatMap(_._2.keys).distinct
    val grp = new Table(Metrics.ordinals(j.n), j.n, asked.toVector.map { c =>
      val (al, a) = aliasOf(q, c)
      c -> rel(al)(a).subset(j(al))
    }, new BitSet)
    def rowsOf(t: Map[String, String]): BitSet = grp.matching(Pattern.Pattern.of(
      t.toSeq.map { case (c, v) => Pattern.Pred(c, Pattern.OpEq, grp.column(c).constant(v)) }: _*))
    val isT1 = rowsOf(uq.tuples.head._2)
    val isT2 = uq match {
      case Query.TwoPoint(_, t2) => rowsOf(t2)
      case Query.SinglePoint(_) => rowsOf(Map.empty)
    }
    isT2.andNot(isT1)
    val ptRows = isT1.stream().toArray ++ isT2.stream().toArray
    new Table(Metrics.ordinals(ptRows.length), isT1.cardinality,
      q.tables.toVector.flatMap { case (_, al) =>
        val rs = Metrics.gather(j(al), ptRows)
        rel(al).names.map(a => q.provCol(al, a) -> rel(al)(a).subset(rs))
      }, new BitSet)
  }

  /** A driver join's result: row i takes row `rows(s)(i)` of each source s
    * (a query alias, or a join-graph node), in the order they were joined.
    */
  private final case class Joined[S](n: Int, rows: Vector[(S, Array[Int])]) {
    def apply(s: S): Array[Int] = rows.collectFirst { case (`s`, rs) => rs }.get
    /** The result rows `picked`, in that order. */
    def pick(picked: Array[Int]): Joined[S] =
      Joined(picked.length, rows.map { case (s, rs) => s -> Metrics.gather(rs, picked) })
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

  /** The rows of `c` equal to the constant `v` of a filter. */
  private def equalTo(c: Col, v: String): BitSet = c.matching(Pattern.Pred("", Pattern.OpEq, c.constant(v)))

  /** A join key from the keys of its attributes (see `Col.key`): null when
    * any is null.
    */
  private def key(cells: Seq[Any]): Any =
    if (cells.size == 1) cells.head else if (cells.contains(null)) null else cells

  /** The key over `cols`, columns of a join result's rows, of result row i. */
  private def keyOf(cols: Seq[(Col, Array[Int])]): Int => Any = cols match {
    case Seq((c, rs)) => i => c.key(rs(i))
    case _ => i => key(cols.map { case (c, rs) => c.key(rs(i)) })
  }

  /** The rows `[0, rows)` under each non-null key over `cols`. */
  private def index(cols: Seq[Col], rows: Int): collection.Map[Any, Array[Int]] = {
    val b = mutable.HashMap.empty[Any, mutable.ArrayBuilder.ofInt]
    (0 until rows).foreach { j =>
      val k = key(cols.map(_.key(j)))
      if (k != null) b.getOrElseUpdate(k, new mutable.ArrayBuilder.ofInt) += j
    }
    b.map { case (k, js) => k -> js.result() }
  }

  /** The hash join of `j` with the rows of `rel` in `keep` (all when null),
    * as source `s`: each result row i with each row r of `rel` whose key
    * over `attrs` is i's key over `left`, in order of i, then of r. NULL
    * matches nothing. `names` names the key pairs, for [[checkKeys]].
    */
  private def probe[S](j: Joined[S], s: S, names: Seq[(String, String)], left: Seq[(Col, Array[Int])],
                       rel: Relation, attrs: Seq[String], keep: BitSet): Joined[S] = {
    checkKeys(names, left.map(_._1), attrs.map(rel(_)))
    val key = keyOf(left)
    val index = rel.index(attrs)
    val l, r = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < j.n) {
      val k = key(i)
      if (k != null) {
        val hits = index.getOrElse(k, Array.emptyIntArray)
        var h = 0
        while (h < hits.length) {
          if (keep == null || keep.get(hits(h))) { l += i; r += hits(h) }
          h += 1
        }
      }
      i += 1
    }
    val joined = j.pick(l.result())
    joined.copy(rows = joined.rows :+ (s -> r.result()))
  }

  /** The rows of `j` whose keys over `l` and over `r`, columns of its rows,
    * are equal and not null, in order. `names` names the key pairs, for
    * [[checkKeys]].
    */
  private def equalKeys[S](j: Joined[S], names: Seq[(String, String)],
                           l: Seq[(Col, Array[Int])], r: Seq[(Col, Array[Int])]): Joined[S] = {
    checkKeys(names, l.map(_._1), r.map(_._1))
    val (kl, kr) = (keyOf(l), keyOf(r))
    val kept = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < j.n) {
      val k = kl(i)
      if (k != null && k == kr(i)) kept += i
      i += 1
    }
    j.pick(kept.result())
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
}
