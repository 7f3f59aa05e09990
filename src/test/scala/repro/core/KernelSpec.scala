package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Pattern._
import repro.ml.LocalSample
import scala.util.Random

/** The evaluation kernels of `explain` against their sort-based and
  * row-by-row references ([[ReferenceKernels]]): row hashes, the drawn
  * sample, predicate bitsets and coverage.
  */
class KernelSpec extends AnyFunSuite {

  /** `n` rows, the first `t1` of t1, over few values, so that most rows
    * repeat an earlier one: `x` a number among null, NaN, −0.0, 0.0, 1.0
    * and 2.5, `s` a string among null, "a" and "b", and `none` null
    * throughout. About a third of the rows belong to the PT tuple of the
    * row before them, within one group.
    */
  private def table(n: Int, t1: Int, seed: Int): Metrics.Table = {
    val rnd = new Random(seed)
    val ids = new Array[Long](n)
    for (i <- 0 until n) ids(i) = if (i > 0 && i != t1 && rnd.nextInt(3) == 0) ids(i - 1) else i.toLong
    val xs = Seq[Any](null, Double.NaN, -0.0, 0.0, 1.0, 2.5)
    val ss = Seq[Any](null, "a", "b")
    Metrics.Table(ids, t1, Seq(
      "x" -> Array.fill[Any](n)(xs(rnd.nextInt(xs.size))),
      "s" -> Array.fill[Any](n)(ss(rnd.nextInt(ss.size))),
      "none" -> Array.fill[Any](n)(null)), Set("x", "none"))
  }

  /** Whether `a` and `b` hold the same rows: names, groups, null bits,
    * the bits of each number and each string's code.
    */
  private def sameRows(a: Metrics.Table, b: Metrics.Table): Boolean =
    a.names == b.names && a.rows == b.rows && a.t1Rows == b.t1Rows && a.names.forall { c =>
      (a.column(c), b.column(c)) match {
        case (Metrics.Table.NumCol(x, xNulls), Metrics.Table.NumCol(y, yNulls)) =>
          xNulls == yNulls && x.indices.forall(i => java.lang.Double.doubleToRawLongBits(x(i)) == java.lang.Double.doubleToRawLongBits(y(i)))
        case (Metrics.Table.StrCol(x, _, _), Metrics.Table.StrCol(y, _, _)) => x.sameElements(y)
        case _ => false
      }
    }

  test("row hashes number identical rows as the sort-based reference does") {
    for (seed <- 0 until 20; (n, t1) <- Seq((1, 1), (7, 3), (300, 120), (1000, 10))) {
      val t = table(n, t1, seed)
      // At most 18 distinct rows, yet every row hashes apart.
      assert(n < 300 || t.rowHashes(Seq("x", "s"), 1, 0, n).distinct.length == n)
      for ((from, until) <- Seq((0, n), (t1, n), (0, t1), (n / 3, n - n / 5), (n - 1, n), (n / 2, n / 2));
           attrs <- Seq(Seq("x", "s"), Seq("s"), Seq("none", "x"), Nil)) {
        assert(t.rowHashes(attrs, seed, from, until).sameElements(ReferenceKernels.rowHashes(t, attrs, seed, from, until)),
          s"seed $seed, rows $n, [$from, $until), $attrs")
      }
    }
  }

  test("the drawn sample keeps the reference's rows in its order, whether take is 1, n − 1, n or over n") {
    for (seed <- 0 until 10; (n, t1) <- Seq((100, 40), (3, 1), (70, 69))) {
      val t = table(n, t1, seed)
      val (n1, n2) = (t1, n - t1)
      // cap / 2 rows per group: 1, one under, at and over each group's size
      val caps = Seq(2, 3, 2 * (n1 - 1), 2 * n1, 2 * (n2 - 1), 2 * n2, 2 * n + 10, 61).filter(_ > 0)
      for (cap <- caps; fraction <- Seq(1.0, 0.6, 0.3, 0.0); attrs <- Seq(Seq("x", "s"), Seq("s", "none"))) {
        val rows = ReferenceKernels.drawRows(t, attrs, fraction, cap, seed)
        assert(sameRows(LocalSample.draw(t, attrs, fraction, cap, seed), t.select(rows, attrs)),
          s"seed $seed, rows $n, cap $cap, fraction $fraction, $attrs")
      }
    }
  }

  test("predicate bitsets and coverage match the row-by-row reference at word boundaries") {
    val constants = Seq(Double.NaN, -0.0, 0.0, 1.0, 2.5, -7.0, 9.0)
    val numeric = for (a <- Seq("x", "none"); op <- Seq(OpEq, OpLe, OpGe); c <- constants) yield Pred(a, op, NumV(c))
    val strings = Seq("a", "b", "zz").map(v => Pred("s", OpEq, CatV(v)))
    for (seed <- 0 until 5; n <- Seq(63, 64, 65, 130)) {
      val t = table(n, n / 3, seed)
      for (p <- numeric ++ strings)
        assert(t.column(p.attr).matching(p) == ReferenceKernels.matching(t.column(p.attr), p), s"seed $seed, rows $n, ${p.render}")
      // An all-false bitset: BitSet.valueOf drops trailing zero words.
      assert(t.column("none").matching(Pred("none", OpLe, NumV(Double.NaN))).isEmpty)
      val patterns = Pattern.empty +: ((numeric ++ strings).map(Pattern.of(_)) ++
        (for (x <- numeric.filter(_.attr == "x"); s <- strings) yield Pattern.of(x, s)))
      assert(t.coverage(patterns) == patterns.map(ReferenceKernels.coverage(t, _)), s"seed $seed, rows $n")
    }
  }
}
