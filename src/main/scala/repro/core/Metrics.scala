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
        new Table(Metrics.gather(ptIds, keep), flags.get(0, t1Rows).cardinality,
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
      new Table(Metrics.gather(ptIds, rows), below(rows, t1Rows),
        columns.map { case (a, c) => a -> c.subset(rows) } ++ more, Metrics.gather(flags, rows))

    /** The table whose row r is row `rows(r)` of this one, over the
      * columns `attrs` in that order; each row is flagged and its own PT
      * tuple, and the dictionaries are shared. A row may repeat; the rows
      * of t1 must come first.
      */
    def select(rows: Array[Int], attrs: Seq[String]): Table = {
      val t1 = below(rows, t1Rows)
      require(below(rows, t1Rows, from = t1) == 0, "the rows of t1 must come first")
      new Table(ordinals(rows.length), t1, attrs.map(a => a -> column(a).subset(rows)).toVector, all(rows.length))
    }

    /** This table with `flags` as its λ_F1-samp flags. */
    private[core] def withFlags(flags: BitSet): Table = new Table(ptIds, t1Rows, columns, flags)

    /** Whether `attr` was collected as a number. */
    def isNumeric(attr: String): Boolean = column(attr).numeric

    /** The numeric column `attr`, one `Double` per row, NaN for null. */
    def doubles(attr: String): Array[Double] = column(attr) match {
      case c: Table.NumCol =>
        val out = new Array[Double](rows)
        var i = 0
        while (i < rows) { out(i) = c.double(i); i += 1 }
        out
      case _ => throw new IllegalArgumentException(s"column $attr is not numeric")
    }

    /** The string column `attr` as dictionary codes, one per row (-1 for
      * null), and its dictionary: code `c` stands for `strings(attr)(c)`.
      * The dictionary may hold values that no row has. The table's own
      * arrays.
      */
    def codes(attr: String): Array[Int] = strCol(attr).codes
    def strings(attr: String): Array[String] = strCol(attr).strings

    /** The string column `attr`, one value per row, null for null. */
    def stringValues(attr: String): Array[String] = {
      val c = strCol(attr)
      c.codes.map(k => if (k < 0) null else c.strings(k))
    }

    /** A seeded MurmurHash3 of each row of `[from, until)` over `attrs`:
      * `arrayHash` of its cells' `##` (of the `Double`, NaN for null, or of
      * the string, 0 for null), mixed with the row's ordinal among the
      * earlier rows of the range with the same hash. Identical rows hash
      * apart, and the multiset of hashes does not depend on row order.
      */
    def rowHashes(attrs: Seq[String], seed: Int, from: Int, until: Int): Array[Int] = {
      val cols = attrs.toArray.map(column)
      val cells = new Array[Int](cols.length)
      // An open-addressing table from each hash seen to how many rows of
      // the range had it so far; a slot with a count of 0 is empty.
      val mask = Integer.highestOneBit(math.max(1, until - from) * 2 - 1) * 2 - 1
      val keys, counts = new Array[Int](mask + 1)
      val out = new Array[Int](until - from)
      var k = 0
      while (k < out.length) {
        var j = 0
        while (j < cols.length) { cells(j) = cols(j).hash(from + k); j += 1 }
        val h = MurmurHash3.arrayHash(cells, seed)
        var s = MurmurHash3.finalizeHash(h, 0) & mask
        while (counts(s) != 0 && keys(s) != h) s = (s + 1) & mask
        keys(s) = h
        out(k) = MurmurHash3.finalizeHash(MurmurHash3.mix(h, counts(s)), 1)
        counts(s) += 1
        k += 1
      }
      out
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
        a => apt.schema(a).dataType.isInstanceOf[NumericType])
    }

    /** A table of rows held on the driver: row `i` belongs to PT tuple
      * `ptIds(i)`, rows `[0, t1Rows)` to t1 and the rest to t2, and each
      * PT tuple's rows are adjacent. `columns` gives each attribute's
      * values, one per row: a `Number` or null for an attribute that is
      * `numeric`, for any other a value held as its string, or null. Every
      * row is flagged.
      */
    def apply(ptIds: Array[Long], t1Rows: Int, columns: Seq[(String, Array[Any])],
              numeric: String => Boolean): Table =
      new Table(ptIds, t1Rows, columns.map { case (a, values) => a -> Col(values, numeric(a)) }.toVector, all(ptIds.length))

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
    }

    private[core] object Col {
      /** A column of `values`: `Number`s (or null) when `numeric`, else
        * values held as their strings.
        */
      def apply(values: Array[Any], numeric: Boolean): Col =
        if (numeric) {
          val doubles = new Array[Double](values.length)
          val nulls = new BitSet(values.length)
          var i = 0
          while (i < values.length) {
            if (values(i) == null) nulls.set(i) else doubles(i) = values(i).asInstanceOf[Number].doubleValue
            i += 1
          }
          NumCol(doubles, nulls)
        } else {
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
        val words = new Array[Long](wordsOf(values.length))
        var i = 0
        p.op match {
          case Pattern.OpEq =>
            while (i < values.length) { if (compare(values(i), c) == 0) words(i >>> 6) |= 1L << i; i += 1 }
          case Pattern.OpLe =>
            while (i < values.length) { if (compare(values(i), c) <= 0) words(i >>> 6) |= 1L << i; i += 1 }
          case Pattern.OpGe =>
            while (i < values.length) { if (compare(values(i), c) >= 0) words(i >>> 6) |= 1L << i; i += 1 }
        }
        val out = BitSet.valueOf(words)
        out.andNot(nulls)
        out
      }
      def subset(rows: Array[Int]): Col = NumCol(gather(values, rows), gather(nulls, rows))
      def hash(i: Int): Int = double(i).##
      def key(i: Int): Any =
        if (nulls.get(i)) null else java.lang.Double.doubleToLongBits(values(i) + 0.0)
      def constant(v: String): Pattern.Value = Pattern.NumV(v.toDouble)
    }

    private[core] final case class StrCol(codes: Array[Int], strings: Array[String], dict: Map[String, Int]) extends Col {
      def matching(p: Pattern.Pred): BitSet = {
        val code = (p.op, p.value) match {
          case (Pattern.OpEq, Pattern.CatV(s)) => dict.getOrElse(s, -2)
          case _ => throw new IllegalArgumentException(s"${p.render}: only = with a string constant applies to a string column")
        }
        val words = new Array[Long](wordsOf(codes.length))
        var i = 0
        while (i < codes.length) { if (codes(i) == code) words(i >>> 6) |= 1L << i; i += 1 }
        BitSet.valueOf(words)
      }
      def subset(rows: Array[Int]): Col = StrCol(gather(codes, rows), strings, dict)
      def hash(i: Int): Int = if (codes(i) < 0) 0 else strings(codes(i)).##
      def key(i: Int): Any = if (codes(i) < 0) null else strings(codes(i))
      def constant(v: String): Pattern.Value = Pattern.CatV(v)
    }

    /** Spark SQL's double ordering: -0.0 equals 0.0, NaN equals NaN and is
      * greater than every other value.
      */
    private def compare(x: Double, y: Double): Int =
      if (x == y) 0 else java.lang.Double.compare(x, y)
  }

  /** `xs(rows(r))` for each r, by primitive loops: the row gathers of
    * [[Table]] and [[Join]].
    */
  private[core] def gather(xs: Array[Int], rows: Array[Int]): Array[Int] = {
    val out = new Array[Int](rows.length)
    var r = 0
    while (r < rows.length) { out(r) = xs(rows(r)); r += 1 }
    out
  }
  private def gather(xs: Array[Long], rows: Array[Int]): Array[Long] = {
    val out = new Array[Long](rows.length)
    var r = 0
    while (r < rows.length) { out(r) = xs(rows(r)); r += 1 }
    out
  }
  private def gather(xs: Array[Double], rows: Array[Int]): Array[Double] = {
    val out = new Array[Double](rows.length)
    var r = 0
    while (r < rows.length) { out(r) = xs(rows(r)); r += 1 }
    out
  }
  private def gather(bits: BitSet, rows: Array[Int]): BitSet = {
    val out = new BitSet(rows.length)
    var r = 0
    while (r < rows.length) { if (bits.get(rows(r))) out.set(r); r += 1 }
    out
  }

  /** How many of `rows`, from index `from` on, are below `n`. */
  private def below(rows: Array[Int], n: Int, from: Int = 0): Int = {
    var c = 0
    var r = from
    while (r < rows.length) { if (rows(r) < n) c += 1; r += 1 }
    c
  }

  /** 0L until n. */
  private[core] def ordinals(n: Int): Array[Long] = {
    val out = new Array[Long](n)
    var i = 0
    while (i < n) { out(i) = i; i += 1 }
    out
  }

  private def all(n: Int): BitSet = { val b = new BitSet(n); b.set(0, n); b }

  /** The `long` words of a bitset of `n` bits. */
  private[core] def wordsOf(n: Int): Int = (n + 63) >>> 6

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
