package repro.core

import repro.SparkSpec
import repro.core.Pattern._

/** Tests for Definition 7: coverage is per-PT-tuple (not per APT row),
  * TP/FP/FN/precision/recall/F-score, and the batched evaluation path.
  */
class MetricsSpec extends SparkSpec {
  import spark.implicits._

  // APT: pt_id 1..3 in t1, 10..11 in t2; pt 1 has two APT rows.
  private lazy val apt = Seq(
    (1L, "t1", "a", 1.0),
    (1L, "t1", "b", 9.0), // second context row of the same PT tuple
    (2L, "t1", "a", 5.0),
    (3L, "t1", "c", 2.0),
    (10L, "t2", "a", 8.0),
    (11L, "t2", "b", 3.0),
  ).toDF("pt_id", "grp", "cat", "num").cache()

  private val pA = Pattern.of(Pred("cat", OpEq, CatV("a")))
  private val pB = Pattern.of(Pred("cat", OpEq, CatV("b")))
  private val pLow = Pattern.of(Pred("num", OpLe, NumV(2.0)))

  test("coverage counts distinct PT tuples, not APT rows") {
    val Seq(c) = Metrics.coverage(apt, Seq(pA))
    assert(c.cov1 == 2 && c.cov2 == 1) // pt 1,2 in t1; pt 10 in t2
  }
  test("a PT tuple is covered if ANY of its APT rows matches") {
    val Seq(c) = Metrics.coverage(apt, Seq(pB))
    assert(c.cov1 == 1 && c.cov2 == 1) // pt 1 via its second row
  }
  test("numeric coverage") {
    val Seq(c) = Metrics.coverage(apt, Seq(pLow))
    assert(c.cov1 == 2 && c.cov2 == 0) // pt 1 (num=1), pt 3 (num=2)
  }
  test("batched coverage equals individual coverage") {
    val pats = Seq(pA, pB, pLow)
    val batched = Metrics.coverage(apt, pats)
    val single = pats.map(p => Metrics.coverage(apt, Seq(p)).head)
    assert(batched == single)
  }
  test("empty pattern list yields empty coverage") {
    assert(Metrics.coverage(apt, Nil).isEmpty)
  }

  test("select keeps the given rows in order, each its own PT tuple") {
    val t = Metrics.Table.collect(apt, Seq("cat", "num"))
    // Rows 0 and 1 are PT tuple 1's two rows; row 1 is taken twice.
    val rows = Array(1, 0, 1, 3, 5, 4)
    val s = t.select(rows, Seq("num", "cat"))
    assert(s.names == Seq("num", "cat") && s.rows == 6 && s.t1Rows == 4)
    assert(s.doubles("num").toSeq == rows.toSeq.map(t.doubles("num")))
    val cat = rows.toSeq.map(t.stringValues("cat"))
    assert(s.stringValues("cat").toSeq == cat && (s.strings("cat") eq t.strings("cat")))
    assert(s.coverage(Seq(Pattern.empty)) == Seq(Metrics.Coverage(4, 2)))
    assert(s.coverage(Seq(pA)) == Seq(Metrics.Coverage(cat.take(4).count(_ == "a"), cat.drop(4).count(_ == "a"))))
    assert(intercept[IllegalArgumentException](t.select(Array(4, 0), Seq("cat"))).getMessage.contains("t1"))
  }

  test("select, flagged and gather keep values, null bits and codes aligned") {
    val ids = Array(1L, 1L, 2L, 3L, 10L, 11L)
    val num = Array[Any](1.0, null, Double.NaN, -0.0, 0.0, 2.5)
    val cat = Array[Any]("a", null, "b", "a", null, "c")
    val t = Metrics.Table(ids, 4, Seq("num" -> num, "cat" -> cat), Set("num"))
    val flags = new java.util.BitSet
    Seq(0, 2, 3, 5).foreach(flags.set)
    val pats = Seq(Pattern.empty, pA, pB, pLow, Pattern.of(Pred("num", OpEq, NumV(-0.0))),
      Pattern.of(Pred("num", OpGe, NumV(1.0))), Pattern.of(Pred("cat", OpEq, CatV("a")), Pred("num", OpLe, NumV(0.0))))
    // `got` against rows `rows` of `t`, built directly with PT tuples `ids`.
    def same(got: Metrics.Table, rows: Array[Int], ids: Array[Long]): Unit = {
      val want = Metrics.Table(ids, rows.count(_ < t.t1Rows), Seq("num" -> rows.map(num), "cat" -> rows.map(cat)), Set("num"))
      assert(got.rows == rows.length && got.t1Rows == want.t1Rows)
      val (Metrics.Table.NumCol(gotValues, gotNulls), Metrics.Table.NumCol(wantValues, wantNulls)) =
        (got.column("num"), want.column("num")): @unchecked
      assert(gotNulls == wantNulls)
      rows.indices.filterNot(gotNulls.get).foreach { r =>
        assert(java.lang.Double.doubleToRawLongBits(gotValues(r)) == java.lang.Double.doubleToRawLongBits(wantValues(r)), s"row $r")
      }
      assert(got.codes("cat").toSeq == rows.toSeq.map(t.codes("cat")) && (got.strings("cat") eq t.strings("cat")))
      assert(got.stringValues("cat").toSeq == want.stringValues("cat").toSeq)
      assert(got.coverage(pats) == want.coverage(pats))
      assert(got.rowHashes(Seq("num", "cat"), 5, 0, got.rows).toSeq == want.rowHashes(Seq("num", "cat"), 5, 0, want.rows).toSeq)
    }
    val selected = Array(3, 1, 0, 3, 5, 4)
    same(t.select(selected, Seq("num", "cat")), selected, Array.tabulate(selected.length)(_.toLong))
    val kept = Array(0, 2, 3, 5)
    same(t.withFlags(flags).flagged, kept, kept.map(ids))
    val gathered = Array(1, 2, 4, 5)
    val g = t.withFlags(flags).gather(gathered, Nil)
    same(g, gathered, gathered.map(ids))
    same(g.flagged, Array(2, 5), Array(2, 5).map(ids))
  }

  test("provSizes counts distinct pt_ids per group") {
    val (n1, n2) = Metrics.provSizes(apt)
    assert(n1 == 3 && n2 == 2)
  }

  test("quality for primary t1: tp/fp/fn per Definition 7(b)-(d)") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), n1 = 3, n2 = 2, primary = "t1")
    assert(q.tp == 2 && q.fp == 1 && q.fn == 1)
  }
  test("precision = tp / (tp + fp)") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), 3, 2, "t1")
    assert(math.abs(q.precision - 2.0 / 3) < 1e-9)
  }
  test("recall = tp / |PT(t1)|") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), 3, 2, "t1")
    assert(math.abs(q.recall - 2.0 / 3) < 1e-9)
  }
  test("F-score is the harmonic mean") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), 3, 2, "t1")
    val f = 2 * q.precision * q.recall / (q.precision + q.recall)
    assert(math.abs(q.fscore - f) < 1e-9)
  }
  test("primary t2 swaps the roles of the two tuples") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), 3, 2, "t2")
    assert(q.tp == 1 && q.fp == 2 && q.fn == 1)
  }
  test("zero coverage yields zero precision/recall/F without NaN") {
    val q = Metrics.quality(Metrics.Coverage(0, 0), 3, 2, "t1")
    assert(q.precision == 0.0 && q.recall == 0.0 && q.fscore == 0.0)
  }
  test("full coverage of primary with zero FP gives F-score 1") {
    val q = Metrics.quality(Metrics.Coverage(3, 0), 3, 2, "t1")
    assert(q.fscore == 1.0)
  }
  test("support fields carry (covered, total) pairs for both tuples") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), 3, 2, "t1")
    assert(q.support1 == (2L, 3L) && q.support2 == (1L, 2L))
  }

  test("recall monotonicity under refinement (Proposition 3.1)") {
    val base = pA
    val refined = pA.refined(Pred("num", OpLe, NumV(1.0)))
    val Seq(cb, cr) = Metrics.coverage(apt, Seq(base, refined))
    val (n1, n2) = Metrics.provSizes(apt)
    assert(Metrics.quality(cr, n1, n2, "t1").recall <= Metrics.quality(cb, n1, n2, "t1").recall)
    assert(Metrics.quality(cr, n1, n2, "t2").recall <= Metrics.quality(cb, n1, n2, "t2").recall)
  }

  test("a group entirely absent from APT contributes zero counts") {
    val onlyT1 = apt.filter($"grp" === "t1")
    val Seq(c) = Metrics.coverage(onlyT1, Seq(pA))
    assert(c.cov1 == 2 && c.cov2 == 0)
  }
}
