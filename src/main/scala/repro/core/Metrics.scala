package repro.core

import java.util.BitSet
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.NumericType
import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** Quality metrics of explanation patterns (paper Definition 7).
  *
  * A PT tuple t' of output t is *covered* by (Ω, Φ) if at least one APT row
  * derived from t' matches Φ. Coverage is therefore counted per distinct
  * `pt_id`, never per APT row. It is counted on the driver by [[Table]]:
  * the APT is held there column by column, every predicate becomes one row
  * bitset, a pattern is the AND of its predicates' bitsets, and the covered
  * PT tuples are the distinct `pt_id` runs among the set rows. Spark runs
  * in local mode, so a driver-side APT shares the driver's heap with
  * Spark's own cache, and mining evaluates hundreds of patterns on APTs of
  * at most ~9k rows on every benchmark workload: the cost of a Spark
  * aggregation per batch of patterns was job latency, not data.
  */
object Metrics {

  /** Coverage of one pattern: distinct PT tuples covered in the provenance
    * of t1 and of t2.
    */
  final case class Coverage(cov1: Long, cov2: Long)

  /** Full quality metrics for a pattern with a chosen primary tuple. */
  final case class Quality(
      primary: String, // "t1" or "t2"
      tp: Long, fp: Long, fn: Long,
      precision: Double, recall: Double, fscore: Double,
      support1: (Long, Long), // (covered, total) for t1
      support2: (Long, Long), // (covered, total) for t2
  )

  /** Counts |PT(Q,D,t1)| and |PT(Q,D,t2)|: the PT tuples the empty pattern
    * covers, from one collect of `pt_id` and `grp`.
    */
  def provSizes(pt: DataFrame): (Long, Long) = {
    val Seq(c) = Table.collect(pt, Nil).coverage(Seq(Pattern.Pattern.empty))
    (c.cov1, c.cov2)
  }

  /** Coverage of each of `patterns` over `apt` (a frame with `pt_id`, `grp`
    * and the columns the patterns reference), aligned with `patterns`.
    * Collects the referenced columns in one Spark job; no job when
    * `patterns` is empty.
    */
  def coverage(apt: DataFrame, patterns: Seq[Pattern.Pattern]): Seq[Coverage] =
    if (patterns.isEmpty) Nil
    else Table.collect(apt, patterns.flatMap(_.preds.map(_.attr)).distinct).coverage(patterns)

  /** An APT held on the driver, column by column.
    *
    * Rows are sorted by `grp`: rows `[0, t1Rows)` belong to t1, the rest to
    * t2, and the rows of one PT tuple are adjacent. Each row carries the
    * `pt_id` of its PT tuple and its λ_F1-samp flag. Numeric columns are
    * stored as `Double` (Spark compares an `Int` column with a `Double`
    * constant after the same widening), strings as dictionary codes; both
    * with nulls marked. The bitset of each predicate is computed once and
    * memoized.
    */
  final class Table private[core] (
      private[core] val ptIds: Array[Long],
      val t1Rows: Int,
      columns: Vector[(String, Table.Col)],
      flags: BitSet,
  ) {
    def rows: Int = ptIds.length
    private val byName: Map[String, Table.Col] = columns.toMap
    private val memo = mutable.HashMap.empty[Pattern.Pred, BitSet]

    /** The column names, in order. */
    def names: Seq[String] = columns.map(_._1)

    /** The rows whose λ_F1-samp flag is set; this same table when every
      * row is flagged.
      */
    lazy val flagged: Table =
      if (flags.cardinality == rows) this
      else {
        val keep = flags.stream().toArray
        new Table(keep.map(ptIds), flags.get(0, t1Rows).cardinality,
          columns.map { case (a, c) => a -> c.subset(keep) }, all(keep.length))
      }

    /** This table with the columns `attrs` only, in that order; the rows
      * and their values are shared.
      */
    def project(attrs: Seq[String]): Table = new Table(ptIds, t1Rows, attrs.map(a => a -> column(a)).toVector, flags)

    /** The table whose row r is row `rows(r)` of this one, with the columns
      * `more` (one value per new row) after its own. `rows` is ascending,
      * so t1's rows stay first and each PT tuple's rows adjacent.
      */
    private[core] def gather(rows: Array[Int], more: Seq[(String, Table.Col)]): Table =
      new Table(rows.map(ptIds), rows.count(_ < t1Rows),
        columns.map { case (a, c) => a -> c.subset(rows) } ++ more, mask(rows.map(flags.get)))

    /** This table with `flags` as its λ_F1-samp flags. */
    private[core] def withFlags(flags: BitSet): Table = new Table(ptIds, t1Rows, columns, flags)

    /** Whether `attr` was collected as a number. */
    def isNumeric(attr: String): Boolean = column(attr).numeric

    /** The numeric column `attr`, one `Double` per row, NaN for null. */
    def doubles(attr: String): Array[Double] = column(attr) match {
      case c: Table.NumCol => Array.tabulate(rows)(c.double)
      case _ => throw new IllegalArgumentException(s"column $attr is not numeric")
    }

    /** The string column `attr` as dictionary codes, one per row (-1 for
      * null), and its dictionary: code `c` stands for `strings(attr)(c)`.
      * The dictionary may hold values that no row has. The table's own
      * arrays.
      */
    def codes(attr: String): Array[Int] = strCol(attr).codes
    def strings(attr: String): Array[String] = strCol(attr).strings

    /** A seeded MurmurHash3 of each row of `[from, until)` over `attrs`:
      * `arrayHash` of its cells' `##` (of the `Double`, NaN for null, or of
      * the string, 0 for null), mixed with the row's ordinal among the
      * earlier rows of the range with the same hash. Identical rows hash
      * apart, and the multiset of hashes does not depend on row order.
      */
    def rowHashes(attrs: Seq[String], seed: Int, from: Int, until: Int): Array[Int] = {
      val cols = attrs.toArray.map(column)
      val copies = mutable.HashMap.empty[Int, Int]
      Array.tabulate(until - from) { k =>
        val h = MurmurHash3.arrayHash(cols.map(_.hash(from + k)), seed)
        val ordinal = copies.getOrElse(h, 0)
        copies(h) = ordinal + 1
        MurmurHash3.finalizeHash(MurmurHash3.mix(h, ordinal), 1)
      }
    }

    /** Coverage of each of `patterns`, aligned with `patterns`. */
    def coverage(patterns: Seq[Pattern.Pattern]): Seq[Coverage] = patterns.map(coverageOf)

    /** Distinct PT tuples of t1 and of t2 with at least one matching row;
      * the empty pattern matches every row.
      */
    private def coverageOf(p: Pattern.Pattern): Coverage = {
      val set =
        if (p.isEmpty) all(rows)
        else {
          val b = matching(p.preds.head).clone().asInstanceOf[BitSet]
          p.preds.tail.foreach(pr => b.and(matching(pr)))
          b
        }
      var c1, c2 = 0L
      var last = -1
      var i = set.nextSetBit(0)
      while (i >= 0) {
        if (last < 0 || ptIds(i) != ptIds(last) || (last < t1Rows) != (i < t1Rows)) {
          if (i < t1Rows) c1 += 1 else c2 += 1
        }
        last = i
        i = set.nextSetBit(i + 1)
      }
      Coverage(c1, c2)
    }

    private[core] def column(attr: String): Table.Col =
      byName.getOrElse(attr, throw new IllegalArgumentException(s"column $attr was not collected"))

    private def strCol(attr: String): Table.StrCol = column(attr) match {
      case c: Table.StrCol => c
      case _ => throw new IllegalArgumentException(s"column $attr is numeric")
    }

    private def matching(p: Pattern.Pred): BitSet = memo.getOrElseUpdate(p, column(p.attr).matching(p))
  }

  object Table {

    /** Collects `pt_id`, `grp` and `attrs` of every row of `apt` whose
      * `grp` is t1 or t2, in one Spark job, and keeps them as columns, every
      * row flagged. A column that is neither numeric nor a string is held
      * as the strings of its values.
      */
    def collect(apt: DataFrame, attrs: Seq[String]): Table = {
      val raw = apt.select(Seq(col("pt_id"), col("grp")) ++ attrs.map(col): _*).collect()
      val ids = raw.map(_.getAs[Number](0).longValue)
      val isT2 = raw.map(_.get(1) == "t2")
      val order = raw.indices.filter(i => isT2(i) || raw(i).get(1) == "t1").toArray
        .sortWith((a, b) => if (isT2(a) != isT2(b)) isT2(b) else ids(a) < ids(b))
      Table(order.map(ids), order.count(!isT2(_)),
        attrs.zipWithIndex.map { case (a, j) => a -> order.map(i => raw(i).get(j + 2)) },
        a => apt.schema(a).dataType.isInstanceOf[NumericType], Array.fill(order.length)(true))
    }

    /** A table of rows held on the driver: row `i` belongs to PT tuple
      * `ptIds(i)`, rows `[0, t1Rows)` to t1 and the rest to t2, and each
      * PT tuple's rows are adjacent. `columns` gives each attribute's
      * values, one per row: a `Number` or null for an attribute that is
      * `numeric`, for any other a value held as its string, or null.
      */
    def apply(ptIds: Array[Long], t1Rows: Int, columns: Seq[(String, Array[Any])],
              numeric: String => Boolean, flags: Array[Boolean]): Table =
      new Table(ptIds, t1Rows, columns.map { case (a, values) => a -> Col(values, numeric(a)) }.toVector, mask(flags))

    /** One column of driver-side rows. */
    private[core] sealed trait Col {
      def numeric: Boolean = isInstanceOf[NumCol]
      def matching(p: Pattern.Pred): BitSet
      def subset(rows: Array[Int]): Col
      /** Row `i`'s `##`, as [[Table.rowHashes]] reads it. */
      def hash(i: Int): Int
      /** Row `i`'s value as a join key, compared by `equals`: null for null
        * (a null key matches nothing), the bits of the `Double` for a number,
        * with −0.0 read as 0.0 and every NaN alike, as Spark normalizes
        * floating-point join keys, and the string for a string.
        */
      def key(i: Int): Any
      /** The constant `v` of a query filter or question, as compared with
        * this column.
        */
      def constant(v: String): Pattern.Value
      /** Row `i`'s value as a Spark literal: a `Double` or a string. */
      def literal(i: Int): Any
    }

    private[core] object Col {
      /** A column of `values`: `Number`s (or null) when `numeric`, else
        * values held as their strings.
        */
      def apply(values: Array[Any], numeric: Boolean): Col =
        if (numeric) NumCol(values.map(v => if (v == null) 0.0 else v.asInstanceOf[Number].doubleValue), mask(values.map(_ == null)))
        else {
          val strings = values.map(v => if (v == null) null else v.toString)
          val dict = strings.filter(_ != null).distinct
          val code = dict.zipWithIndex.toMap
          StrCol(strings.map(v => if (v == null) -1 else code(v)), dict, code)
        }
    }

    private[core] final case class NumCol(values: Array[Double], nulls: BitSet) extends Col {
      def double(i: Int): Double = if (nulls.get(i)) Double.NaN else values(i)
      def matching(p: Pattern.Pred): BitSet = {
        val c = p.value match {
          case Pattern.NumV(d) => d
          case _ => throw new IllegalArgumentException(s"${p.render}: a string constant on a numeric column")
        }
        val out = new BitSet(values.length)
        var i = 0
        while (i < values.length) {
          if (!nulls.get(i)) {
            val cmp = compare(values(i), c)
            val hit = p.op match {
              case Pattern.OpEq => cmp == 0
              case Pattern.OpLe => cmp <= 0
              case Pattern.OpGe => cmp >= 0
            }
            if (hit) out.set(i)
          }
          i += 1
        }
        out
      }
      def subset(rows: Array[Int]): Col = NumCol(rows.map(values), mask(rows.map(nulls.get)))
      def hash(i: Int): Int = double(i).##
      def key(i: Int): Any =
        if (nulls.get(i)) null else java.lang.Double.doubleToLongBits(values(i) + 0.0)
      def constant(v: String): Pattern.Value = Pattern.NumV(v.toDouble)
      def literal(i: Int): Any = values(i)
    }

    private[core] final case class StrCol(codes: Array[Int], strings: Array[String], dict: Map[String, Int]) extends Col {
      def matching(p: Pattern.Pred): BitSet = {
        val code = (p.op, p.value) match {
          case (Pattern.OpEq, Pattern.CatV(s)) => dict.getOrElse(s, -2)
          case _ => throw new IllegalArgumentException(s"${p.render}: only = with a string constant applies to a string column")
        }
        val out = new BitSet(codes.length)
        var i = 0
        while (i < codes.length) {
          if (codes(i) == code) out.set(i)
          i += 1
        }
        out
      }
      def subset(rows: Array[Int]): Col = StrCol(rows.map(codes), strings, dict)
      def hash(i: Int): Int = if (codes(i) < 0) 0 else strings(codes(i)).##
      def key(i: Int): Any = if (codes(i) < 0) null else strings(codes(i))
      def constant(v: String): Pattern.Value = Pattern.CatV(v)
      def literal(i: Int): Any = strings(codes(i))
    }

    /** Spark SQL's double ordering: -0.0 equals 0.0, NaN equals NaN and is
      * greater than every other value.
      */
    private def compare(x: Double, y: Double): Int =
      if (x == y) 0 else java.lang.Double.compare(x, y)
  }

  private[core] def mask(bits: Array[Boolean]): BitSet = {
    val b = new BitSet(bits.length)
    bits.indices.foreach(i => if (bits(i)) b.set(i))
    b
  }

  private def all(n: Int): BitSet = { val b = new BitSet(n); b.set(0, n); b }

  /** Derives precision/recall/F-score (Definition 7(e)) from coverage given
    * the provenance sizes and the chosen primary tuple.
    */
  def quality(cov: Coverage, n1: Long, n2: Long, primary: String): Quality = {
    val (tp, fp, nPrim) =
      if (primary == "t1") (cov.cov1, cov.cov2, n1) else (cov.cov2, cov.cov1, n2)
    val fn = nPrim - tp
    val prec = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    val rec = if (nPrim == 0) 0.0 else tp.toDouble / nPrim
    val f1 = if (prec + rec == 0) 0.0 else 2 * prec * rec / (prec + rec)
    Quality(primary, tp, fp, fn, prec, rec, f1, (cov.cov1, n1), (cov.cov2, n2))
  }
}
