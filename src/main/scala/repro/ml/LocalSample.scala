package repro.ml

import org.apache.spark.sql.DataFrame
import repro.core.Metrics
import scala.reflect.ClassTag

/** A small sample of an APT held in a [[Metrics.Table]], used by the
  * sample-based steps of the mining pipeline (feature relevance, attribute
  * clustering, LCA candidate generation): the table's rows `rows`, those of
  * t1 first. Numeric attributes are read as Double (NaN for null),
  * categoricals as the table's dictionary codes (-1 for null).
  */
final case class LocalSample(table: Metrics.Table, attrs: Vector[LocalSample.Attr], rows: Vector[Int]) {
  def attrIndex(name: String): Int = attrs.indexWhere(_.name == name)
  def size: Int = rows.size

  /** 0 if sample row `k` belongs to the provenance of t1, 1 for t2. */
  def label(k: Int): Int = if (rows(k) < table.t1Rows) 0 else 1

  def numericValues(i: Int): Array[Double] = gather(table.doubles(attrs(i).name))
  def codes(i: Int): Array[Int] = gather(table.codes(attrs(i).name))
  def categoricalValues(i: Int): Array[String] = {
    val strings = table.strings(attrs(i).name)
    codes(i).map(c => if (c < 0) null else strings(c))
  }

  private def gather[T: ClassTag](column: Array[T]): Array[T] = rows.iterator.map(column(_)).toArray
}

object LocalSample {
  final case class Attr(name: String, numeric: Boolean)

  /** Draws a sample of the APT held in `table` over the given attribute
    * columns, stratified by question tuple. Within t1 and within t2, rows
    * are ranked by a MurmurHash3, seeded with `seed`, of their values and
    * their ordinal among identical rows; the ⌈fraction·n⌉ lowest-ranked
    * rows of a group of n are kept, in rank order, at most cap/2. A fractional sample of a small
    * group would starve feature selection and LCA, so when it would hold
    * fewer than min(cap/2, 30) rows the group's min(n, cap/2) lowest-ranked
    * rows are kept instead. Ranks depend on row values only, not on row
    * order (two rows tie only on a hash collision), so the sample does not
    * depend on how the APT was partitioned. A row's rank is its
    * [[Metrics.Table.rowHashes]] hash.
    */
  def draw(table: Metrics.Table, attrCols: Seq[String], fraction: Double, cap: Int, seed: Long): LocalSample = {
    val attrs = attrCols.toVector.map(a => Attr(a, table.isNumeric(a)))
    val frac = math.min(1.0, math.max(fraction, 1e-6))
    val perGrp = math.max(1, cap / 2)
    def group(from: Int, until: Int): Seq[Int] = {
      val rank = table.rowHashes(attrCols, seed.toInt, from, until)
      val n = until - from
      val want = math.min(perGrp, math.ceil(frac * n).toInt)
      val take = if (want >= math.min(perGrp, 30)) want else math.min(perGrp, n)
      rank.indices.sortBy(rank(_)).take(take).map(from + _)
    }
    LocalSample(table, attrs, (group(0, table.t1Rows) ++ group(table.t1Rows, table.rows)).toVector)
  }

  /** Collects `apt` (a frame with `pt_id`, `grp` and `attrCols`) to the
    * driver and [[draw]]s the sample from it.
    */
  def collect(apt: DataFrame, attrCols: Seq[String], fraction: Double, cap: Int, seed: Long = 7): LocalSample =
    draw(Metrics.Table.collect(apt, attrCols), attrCols, fraction, cap, seed)
}
