package repro.core

import java.util.BitSet
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.NumericType
import repro.core.Metrics.Table
import repro.core.Metrics.Table.Col
import scala.collection.mutable

/** Equi-joins on the driver: the question's provenance table from the
  * query's relations, and the APT of every join graph from its parent
  * graph's APT by one edge (paper §4, Algorithm 2's ExtendJG/AddEdge).
  *
  * Spark's share of `explain` is one collect per relation per database:
  * the first call that reads a relation collects it whole
  * ([[Schema.Database.relations]]), and every later call on that database
  * reads the held columns and launches no Spark job. Everything else works
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
    * `table` with its λ_F1-samp flags set ([[f1Flags]]). The APT of a join
    * graph is built from the APT of its parent, the graph without its last
    * edge, and every APT is memoized, so a graph costs one hash join or
    * filter once its parent exists. Tables keep every column, the join
    * keys included; mining projects them onto [[Apt.patternColumns]].
    */
  final class Apts private (val q: Query.QuerySpec, table: Table, relations: Relations, params: Params) {
    private val flags = f1Flags(table, params)
    val pt: Table = table.withFlags(flags)
    private val memo = mutable.HashMap[Schema.JoinGraph, Table](Schema.JoinGraph.empty -> pt)

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
          val kept = new mutable.ArrayBuilder.ofInt
          var i = 0
          while (i < parent.rows) {
            val k = key(l, i)
            if (k != null && k == key(r, i)) kept += i
            i += 1
          }
          parent.gather(kept.result(), Nil)
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
    * question constrain most, each next one joined to those before it if
    * the query joins it to any, through the relation's held index on the
    * joined attributes; only the rows that pass the alias's filters are
    * joined. The driver applies every filter, join condition and question
    * value itself, on relations collected whole.
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

    // The join so far: for each alias joined, the relation row of each
    // joined row. One row of no alias to start with.
    val rel = mutable.HashMap.empty[String, Relation]
    var rows = Map.empty[String, Array[Int]]
    var n = 1
    for (al <- order) {
      val joins = joinsTo(q, al, order.takeWhile(_ != al).toSeq)
      val left = joins.map { case (b, ba, _) => (rel(b)(ba), rows(b)) }
      val r = relations(q.relOfAlias(al))
      val right = joins.map { case (_, _, a) => r(a) }
      checkKeys(joins.map { case (b, ba, a) => (q.provCol(b, ba), q.provCol(al, a)) }, left.map(_._1), right)
      val kept = q.filters.filter(_.alias == al).foldLeft(all(r.rows)) { (b, f) =>
        b.and(equalTo(r(f.attr), f.value)); b
      }
      val leftKey: Int => Any = left match {
        case Seq((c, rs)) => i => c.key(rs(i))
        case _ => i => key(left.map { case (c, rs) => c.key(rs(i)) })
      }
      val (p, m) = probe(n, leftKey, r.index(joins.map(_._3)), Some(kept))
      rows = rows.map { case (b, rs) => b -> Metrics.gather(rs, p) } + (al -> m)
      rel(al) = r
      n = p.length
    }

    // The question: t1's rows, then t2's; other rows are not part of it.
    // Each is a mask of `long` words over the joined rows, built one column
    // test at a time: the joined rows whose row of alias `al` is in `bits`.
    def joinedIn(al: String, bits: BitSet): Array[Long] = {
      val rs = rows(al)
      val words = new Array[Long](Metrics.wordsOf(n))
      var i = 0
      while (i < n) { if (bits.get(rs(i))) words(i >>> 6) |= 1L << i; i += 1 }
      words
    }
    def and(x: Array[Long], y: Array[Long]): Array[Long] = { var w = 0; while (w < x.length) { x(w) &= y(w); w += 1 }; x }
    def matches(t: Map[String, String]): Array[Long] =
      t.foldLeft(ones(n)) { case (m, (c, v)) =>
        val (al, a) = aliasOf(q, c)
        and(m, joinedIn(al, equalTo(rel(al)(a), v)))
      }
    // Conditions between two attributes of one alias filter its rows.
    val selfJoined = q.joins.foldLeft(ones(n)) {
      case (m, ((a1, c1), (a2, c2))) if a1 == a2 =>
        val (x, y, rs) = (rel(a1)(c1), rel(a1)(c2), rows(a1))
        val words = new Array[Long](Metrics.wordsOf(n))
        var i = 0
        while (i < n) { val k = x.key(rs(i)); if (k != null && k == y.key(rs(i))) words(i >>> 6) |= 1L << i; i += 1 }
        and(m, words)
      case (m, _) => m
    }
    val isT1 = and(matches(uq.tuples.head._2), selfJoined)
    val isT2 = uq match {
      case Query.TwoPoint(_, t2) => and(matches(t2), selfJoined)
      case Query.SinglePoint(_) => selfJoined
    }
    val t1, t2 = new mutable.ArrayBuilder.ofInt
    var w = 0
    while (w < isT1.length) {
      var b1 = isT1(w)
      var b2 = isT2(w) & ~b1
      while (b1 != 0) { t1 += w << 6 | java.lang.Long.numberOfTrailingZeros(b1); b1 &= b1 - 1 }
      while (b2 != 0) { t2 += w << 6 | java.lang.Long.numberOfTrailingZeros(b2); b2 &= b2 - 1 }
      w += 1
    }
    val t1Rows = t1.length
    val ptRows = (t1 ++= t2.result()).result()
    new Table(Metrics.ordinals(ptRows.length), t1Rows,
      q.tables.toVector.flatMap { case (_, al) =>
        val rs = Metrics.gather(rows(al), ptRows)
        rel(al).names.map(a => q.provCol(al, a) -> rel(al)(a).subset(rs))
      }, new BitSet)
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

  /** The rows `[0, rows)` under each non-null key over `cols`. */
  private def index(cols: Seq[Col], rows: Int): collection.Map[Any, Array[Int]] = {
    val b = mutable.HashMap.empty[Any, mutable.ArrayBuilder.ofInt]
    (0 until rows).foreach { j =>
      val k = key(cols, j)
      if (k != null) b.getOrElseUpdate(k, new mutable.ArrayBuilder.ofInt) += j
    }
    b.map { case (k, js) => k -> js.result() }
  }

  /** The pairs (i, j) of rows i < n of the left side and rows j of `index`
    * under the key of i that are in `keep` (all when it is empty): in order
    * of i, then of j.
    */
  private def probe(n: Int, key: Int => Any, index: collection.Map[Any, Array[Int]],
                    keep: Option[BitSet] = None): (Array[Int], Array[Int]) = {
    val kept = keep.orNull
    val l, r = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < n) {
      val k = key(i)
      if (k != null) {
        val hits = index.getOrElse(k, Array.emptyIntArray)
        var h = 0
        while (h < hits.length) {
          val j = hits(h)
          if (kept == null || kept.get(j)) { l += i; r += j }
          h += 1
        }
      }
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

  /** The `long` words of a bitset of `n` bits, all of them set. */
  private def ones(n: Int): Array[Long] = {
    val words = new Array[Long](Metrics.wordsOf(n))
    java.util.Arrays.fill(words, -1L)
    if ((n & 63) != 0) words(words.length - 1) = (1L << n) - 1
    words
  }
}
