package repro.core

import java.util.BitSet
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType
import scala.collection.mutable

/** Quality metrics of explanation patterns (paper Definition 7).
  *
  * A PT tuple t' of output t is *covered* by (Ω, Φ) if at least one APT row
  * derived from t' matches Φ. Coverage is therefore counted per distinct
  * `pt_id`, never per APT row. It is counted on the driver by [[Table]]:
  * the APT is collected once, every predicate becomes one row bitset, a
  * pattern is the AND of its predicates' bitsets, and the covered PT tuples
  * are the distinct `pt_id` runs among the set rows. Spark runs in local
  * mode, so a collected APT shares the driver's heap with Spark's own
  * cache, and mining evaluates hundreds of patterns on APTs of at most ~9k
  * rows on every benchmark workload: the cost of a Spark aggregation per
  * batch of patterns was job latency, not data.
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
    * Rows are sorted by (`grp`, `pt_id`): rows `[0, t1Rows)` belong to t1,
    * the rest to t2, and the rows of one PT tuple are adjacent. Numeric
    * columns are stored as `Double` (Spark compares an `Int` column with a
    * `Double` constant after the same widening), strings as dictionary
    * codes; both with nulls marked. The bitset of each predicate is
    * computed once and memoized.
    */
  final class Table private (
      ptIds: Array[Long],
      val t1Rows: Int,
      columns: Map[String, Table.Col],
      flags: BitSet,
  ) {
    def rows: Int = ptIds.length
    private val memo = mutable.HashMap.empty[Pattern.Pred, BitSet]

    /** The rows whose flag was true at [[Table.collect]]; this same table
      * when every row is flagged.
      */
    lazy val flagged: Table =
      if (flags.cardinality == rows) this
      else {
        val keep = flags.stream().toArray
        new Table(keep.map(ptIds), flags.get(0, t1Rows).cardinality,
          columns.map { case (a, c) => a -> c.subset(keep) }, all(keep.length))
      }

    /** Whether `attr` was collected as a number. */
    def isNumeric(attr: String): Boolean = column(attr).isInstanceOf[Table.NumCol]

    /** `attr` in row `i` as [[repro.ml.LocalSample]] holds it: a `Double`
      * (NaN for null) for a numeric column, the `String` (or null) otherwise.
      */
    def value(attr: String, i: Int): Any = column(attr).value(i)

    /** The numeric column `attr`, one `Double` per row, NaN for null. */
    def doubles(attr: String): Array[Double] = column(attr) match {
      case Table.NumCol(values, nulls) => Array.tabulate(rows)(i => if (nulls.get(i)) Double.NaN else values(i))
      case _ => throw new IllegalArgumentException(s"column $attr is not numeric")
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

    private def column(attr: String): Table.Col =
      columns.getOrElse(attr, throw new IllegalArgumentException(s"column $attr was not collected"))

    private def matching(p: Pattern.Pred): BitSet = memo.getOrElseUpdate(p, column(p.attr).matching(p))
  }

  object Table {

    /** Collects `pt_id`, `grp`, `attrs` and the boolean `flag` of every row
      * of `apt` whose `grp` is t1 or t2, in one Spark job, and keeps them
      * as columns. Rows with a false or null flag are left out of
      * [[Table.flagged]] only. A column that is neither numeric nor a
      * string is held as the strings of its values.
      */
    def collect(apt: DataFrame, attrs: Seq[String], flag: Column = lit(true)): Table = {
      val raw = apt.select(Seq(col("pt_id"), col("grp"), flag) ++ attrs.map(col): _*).collect()
      val ids = raw.map(_.getAs[Number](0).longValue)
      val isT2 = raw.map(_.get(1) == "t2")
      val order = raw.indices.filter(i => isT2(i) || raw(i).get(1) == "t1").toArray
        .sortWith((a, b) => if (isT2(a) != isT2(b)) isT2(b) else ids(a) < ids(b))
      val columns = attrs.zipWithIndex.map { case (a, j) =>
        val values = order.map(i => raw(i).get(j + 3))
        a -> (apt.schema(a).dataType match {
          case _: NumericType => NumCol(values.map(v => if (v == null) 0.0 else v.asInstanceOf[Number].doubleValue),
                                        mask(values.map(_ == null)))
          case _ =>
            val strings = values.map(v => if (v == null) null else v.toString)
            val dict = strings.iterator.filter(_ != null).distinct.zipWithIndex.toMap
            StrCol(strings.map(v => if (v == null) -1 else dict(v)), dict)
        })
      }.toMap
      new Table(order.map(ids), order.count(!isT2(_)), columns,
        mask(order.map(i => !raw(i).isNullAt(2) && raw(i).getBoolean(2))))
    }

    private sealed trait Col {
      def matching(p: Pattern.Pred): BitSet
      def subset(rows: Array[Int]): Col
      def value(i: Int): Any
    }

    private final case class NumCol(values: Array[Double], nulls: BitSet) extends Col {
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
      def value(i: Int): Any = if (nulls.get(i)) Double.NaN else values(i)
    }

    private final case class StrCol(codes: Array[Int], dict: Map[String, Int]) extends Col {
      private lazy val strings: Array[String] = {
        val s = new Array[String](dict.size)
        dict.foreach { case (v, c) => s(c) = v }
        s
      }
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
      def subset(rows: Array[Int]): Col = StrCol(rows.map(codes), dict)
      def value(i: Int): Any = if (codes(i) < 0) null else strings(codes(i))
    }

    /** Spark SQL's double ordering: -0.0 equals 0.0, NaN equals NaN and is
      * greater than every other value.
      */
    private def compare(x: Double, y: Double): Int =
      if (x == y) 0 else java.lang.Double.compare(x, y)
  }

  private def mask(bits: Array[Boolean]): BitSet = {
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
