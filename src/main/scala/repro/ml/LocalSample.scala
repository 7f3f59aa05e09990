package repro.ml

import org.apache.spark.sql.DataFrame
import repro.core.Metrics
import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** A small, driver-local sample of an APT, used by the sample-based steps
  * of the mining pipeline (feature relevance, attribute clustering, LCA
  * candidate generation). Numeric attributes are stored as Double (NaN for
  * null), categoricals as String (null preserved).
  */
final case class LocalSample(
    attrs: Vector[LocalSample.Attr],
    rows: Vector[Array[Any]],
    labels: Vector[Int], // 0 = provenance of t1, 1 = provenance of t2
) {
  def attrIndex(name: String): Int = attrs.indexWhere(_.name == name)
  def size: Int = rows.size

  def numericValues(i: Int): Vector[Double] =
    rows.map(r => r(i) match { case d: java.lang.Double => d.doubleValue; case _ => Double.NaN })
  def categoricalValues(i: Int): Vector[String] =
    rows.map(r => r(i) match { case s: String => s; case null => null; case x => x.toString })
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
    * depend on how the APT was partitioned.
    */
  def draw(table: Metrics.Table, attrCols: Seq[String], fraction: Double, cap: Int, seed: Long): LocalSample = {
    val attrs = attrCols.toVector.map(a => Attr(a, table.isNumeric(a)))
    val frac = math.min(1.0, math.max(fraction, 1e-6))
    val perGrp = math.max(1, cap / 2)
    def group(from: Int, until: Int): Seq[Array[Any]] = {
      val rows = (from until until).map(i => attrCols.map(table.value(_, i)).toArray)
      val copies = mutable.HashMap.empty[Int, Int]
      val rank = rows.map { r =>
        val h = MurmurHash3.arrayHash(r, seed.toInt)
        val ordinal = copies.getOrElse(h, 0)
        copies(h) = ordinal + 1
        MurmurHash3.finalizeHash(MurmurHash3.mix(h, ordinal), 1)
      }
      val n = rows.size
      val want = math.min(perGrp, math.ceil(frac * n).toInt)
      val take = if (want >= math.min(perGrp, 30)) want else math.min(perGrp, n)
      rows.indices.sortBy(rank).take(take).map(rows)
    }
    val t1 = group(0, table.t1Rows)
    val t2 = group(table.t1Rows, table.rows)
    LocalSample(attrs, (t1 ++ t2).toVector, Vector.fill(t1.size)(0) ++ Vector.fill(t2.size)(1))
  }

  /** Collects `apt` (a frame with `pt_id`, `grp` and `attrCols`) to the
    * driver and [[draw]]s the sample from it.
    */
  def collect(apt: DataFrame, attrCols: Seq[String], fraction: Double, cap: Int, seed: Long = 7): LocalSample =
    draw(Metrics.Table.collect(apt, attrCols), attrCols, fraction, cap, seed)
}
