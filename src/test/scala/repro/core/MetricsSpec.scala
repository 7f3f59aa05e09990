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
