package repro.ml

import org.apache.spark.sql.DataFrame
import repro.core.Metrics

/** The sample of an APT that the sample-based steps of the mining pipeline
  * read (feature relevance, attribute clustering, LCA candidate
  * generation): a [[Metrics.Table]] of the drawn rows, those of t1 first,
  * each its own PT tuple.
  */
object LocalSample {

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
  def draw(table: Metrics.Table, attrCols: Seq[String], fraction: Double, cap: Int, seed: Long): Metrics.Table = {
    val frac = math.min(1.0, math.max(fraction, 1e-6))
    val perGrp = math.max(1, cap / 2)
    def group(from: Int, until: Int): Array[Int] = {
      val rank = table.rowHashes(attrCols, seed.toInt, from, until)
      val n = until - from
      val want = math.min(perGrp, math.ceil(frac * n).toInt)
      val take = if (want >= math.min(perGrp, 30)) want else math.min(perGrp, n)
      // A row's rank in the high 32 bits and its offset in the low ones, so
      // the sorted longs order rows by rank, then by offset. They are
      // distinct, so the `take` lowest, sorted, are the first `take` of all
      // of them sorted.
      val byRank = new Array[Long](n)
      var k = 0
      while (k < n) { byRank(k) = rank(k).toLong << 32 | k; k += 1 }
      val kept = new Array[Int](math.min(take, n))
      selectLowest(byRank, kept.length)
      java.util.Arrays.sort(byRank, 0, kept.length)
      k = 0
      while (k < kept.length) { kept(k) = from + byRank(k).toInt; k += 1 }
      kept
    }
    table.select(group(0, table.t1Rows) ++ group(table.t1Rows, table.rows), attrCols)
  }

  /** Moves the `m` lowest of the distinct `xs` to `xs(0 until m)`, in no
    * particular order (quickselect, Hoare 1961, with a median-of-three
    * pivot).
    */
  private def selectLowest(xs: Array[Long], m: Int): Unit = {
    def swap(i: Int, j: Int): Unit = { val t = xs(i); xs(i) = xs(j); xs(j) = t }
    var lo = 0
    var hi = xs.length - 1
    while (m > 0 && m < xs.length && lo < hi) {
      // Partition [lo, hi] around the median of its ends and middle,
      // moved to hi: the smaller values end up before its final place p.
      val mid = (lo + hi) >>> 1
      if (xs(mid) < xs(lo)) swap(mid, lo)
      if (xs(hi) < xs(lo)) swap(hi, lo)
      if (xs(mid) < xs(hi)) swap(mid, hi)
      val pivot = xs(hi)
      var p = lo
      var i = lo
      while (i < hi) { if (xs(i) < pivot) { swap(i, p); p += 1 }; i += 1 }
      swap(p, hi)
      if (p == m - 1) lo = hi
      else if (p < m - 1) lo = p + 1
      else hi = p - 1
    }
  }

  /** Collects `apt` (a frame with `pt_id`, `grp` and `attrCols`) to the
    * driver and [[draw]]s the sample from it.
    */
  def collect(apt: DataFrame, attrCols: Seq[String], fraction: Double, cap: Int, seed: Long = 7): Metrics.Table =
    draw(Metrics.Table.collect(apt, attrCols), attrCols, fraction, cap, seed)
}
