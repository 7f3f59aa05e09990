package repro.core

import java.util.BitSet
import scala.util.hashing.MurmurHash3

/** The references for the evaluation kernels of `explain`: the direct code
  * that each kernel replaced, kept test-only, as [[repro.ml.ReferenceForest]]
  * is. They sort every row, test every row and re-score every candidate in
  * every round.
  */
object ReferenceKernels {

  /** [[Metrics.Table.rowHashes]] by a sort of one (hash, offset) `Long` per
    * row: after the sort the rows of one hash are adjacent and in row order.
    */
  def rowHashes(table: Metrics.Table, attrs: Seq[String], seed: Int, from: Int, until: Int): Array[Int] = {
    val cols = attrs.map(table.column)
    val byHash = Array.tabulate(until - from) { k =>
      MurmurHash3.arrayHash(cols.map(_.hash(from + k)).toArray, seed).toLong << 32 | k
    }
    java.util.Arrays.sort(byHash)
    val out = new Array[Int](byHash.length)
    var ordinal = 0
    for (r <- byHash.indices) {
      val h = (byHash(r) >> 32).toInt
      ordinal = if (r > 0 && (byHash(r - 1) >> 32).toInt == h) ordinal + 1 else 0
      out(byHash(r).toInt) = MurmurHash3.finalizeHash(MurmurHash3.mix(h, ordinal), 1)
    }
    out
  }

  /** The rows that [[repro.ml.LocalSample.draw]] keeps, by a sort of every
    * row of each group by (rank, offset).
    */
  def drawRows(table: Metrics.Table, attrCols: Seq[String], fraction: Double, cap: Int, seed: Long): Array[Int] = {
    val frac = math.min(1.0, math.max(fraction, 1e-6))
    val perGrp = math.max(1, cap / 2)
    def group(from: Int, until: Int): Array[Int] = {
      val rank = rowHashes(table, attrCols, seed.toInt, from, until)
      val n = until - from
      val want = math.min(perGrp, math.ceil(frac * n).toInt)
      val take = if (want >= math.min(perGrp, 30)) want else math.min(perGrp, n)
      val byRank = Array.tabulate(n)(k => rank(k).toLong << 32 | k)
      java.util.Arrays.sort(byRank)
      byRank.take(take).map(r => from + r.toInt)
    }
    group(0, table.t1Rows) ++ group(table.t1Rows, table.rows)
  }

  /** The rows of column `c` that match `p`, tested one row at a time. */
  def matching(c: Metrics.Table.Col, p: Pattern.Pred): BitSet = {
    val out = new BitSet
    c match {
      case Metrics.Table.NumCol(values, nulls) =>
        val Pattern.NumV(v) = p.value: @unchecked
        for (i <- values.indices if !nulls.get(i)) {
          // Spark's double ordering: -0.0 = 0.0, NaN = NaN above all.
          val cmp = if (values(i) == v) 0 else java.lang.Double.compare(values(i), v)
          val hit = p.op match {
            case Pattern.OpEq => cmp == 0
            case Pattern.OpLe => cmp <= 0
            case Pattern.OpGe => cmp >= 0
          }
          if (hit) out.set(i)
        }
      case Metrics.Table.StrCol(codes, _, dict) =>
        val Pattern.CatV(s) = p.value: @unchecked
        val code = dict.getOrElse(s, -2)
        for (i <- codes.indices if codes(i) == code) out.set(i)
    }
    out
  }

  /** Coverage of `p` on `table`: the distinct PT tuples of t1 and of t2
    * with a row that matches every predicate, by [[matching]].
    */
  def coverage(table: Metrics.Table, p: Pattern.Pattern): Metrics.Coverage = {
    val covered = (0 until table.rows)
      .filter(i => p.preds.forall(pr => matching(table.column(pr.attr), pr).get(i)))
      .map(i => (table.ptIds(i), i < table.t1Rows)).distinct
    Metrics.Coverage(covered.count(_._2), covered.count(!_._2))
  }

  /** [[Mine.selectDiverse]] by re-scoring every candidate in every round,
    * over the candidates in (−F, render, primary) order.
    */
  def selectDiverse(cands: Seq[(Pattern.Pattern, Metrics.Quality)], k: Int): Seq[(Pattern.Pattern, Metrics.Quality)] = {
    val pool = scala.collection.mutable.ArrayBuffer(
      cands.map(c => (c, c._1.render))
        .sortBy { case ((_, qu), render) => (-qu.fscore, render, qu.primary) }
        .map(_._1)
        .distinctBy { case (p, qu) => (p, qu.primary) }: _*)
    val out = scala.collection.mutable.ArrayBuffer.empty[(Pattern.Pattern, Metrics.Quality)]
    while (out.size < k && pool.nonEmpty) {
      val best = pool.maxBy { case (p, qu) => Pattern.wscore(qu.fscore, p, out.map(_._1).toSeq) }
      out += best
      pool -= best
    }
    out.toSeq
  }
}
