package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{SparkSpec, TestData}
import repro.core.Pattern._
import repro.core.Schema._
import repro.data.Nba
import repro.ml.LocalSample

/** Tests for LCA candidate generation, feature selection, and the MineAPT
  * pipeline (Algorithm 1).
  */
class MineSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private lazy val q = Nba.qNba4
  private lazy val uq = Nba.seasonQuestion(q, "2015-16", "2012-13")
  private lazy val pt = Query.questionProvenance(nba, q, uq).cache()

  // ---- LCA ----------------------------------------------------------------

  private def sampleOf(rows: Seq[(String, String)]): LocalSample =
    LocalSample(
      Vector(LocalSample.Attr("a", false), LocalSample.Attr("b", false)),
      rows.map { case (x, y) => Array[Any](x, y) }.toVector,
      Vector.fill(rows.size)(0))

  test("LCA keeps agreed constants and stars out disagreements") {
    val pats = Lca.candidates(sampleOf(Seq(("x", "1"), ("x", "2"))), Seq("a", "b"), 3)
    assert(pats.contains(Pattern.of(Pred("a", OpEq, CatV("x")))))
    assert(!pats.exists(_.attrs.contains("b")))
  }
  test("LCA emits full agreements as multi-predicate patterns") {
    val pats = Lca.candidates(sampleOf(Seq(("x", "1"), ("x", "1"))), Seq("a", "b"), 3)
    assert(pats.contains(Pattern.of(Pred("a", OpEq, CatV("x")), Pred("b", OpEq, CatV("1")))))
  }
  test("LCA ranks frequent combinations first") {
    val rows = Seq.fill(8)(("x", "1")) ++ Seq(("y", "2"))
    val pats = Lca.candidates(sampleOf(rows), Seq("a", "b"), 3)
    assert(pats.head == Pattern.of(Pred("a", OpEq, CatV("x")), Pred("b", OpEq, CatV("1"))))
  }
  test("LCA ignores null agreements") {
    val s = LocalSample(
      Vector(LocalSample.Attr("a", false)),
      Vector(Array[Any](null), Array[Any](null)),
      Vector(0, 0))
    assert(Lca.candidates(s, Seq("a"), 3).isEmpty)
  }
  test("LCA truncates wide agreements to the rarest maxPreds constants") {
    val s = LocalSample(
      Vector(LocalSample.Attr("common", false), LocalSample.Attr("rare", false)),
      Vector.fill(9)(Array[Any]("c", null)) :+ Array[Any]("c", "r") :+ Array[Any]("c", "r"),
      Vector.fill(11)(0))
    val pats = Lca.candidates(s, Seq("common", "rare"), 1)
    assert(pats.forall(_.size == 1))
    assert(pats.contains(Pattern.of(Pred("rare", OpEq, CatV("r")))))
  }
  test("LCA on fewer than two rows yields nothing") {
    assert(Lca.candidates(sampleOf(Seq(("x", "1"))), Seq("a", "b"), 3).isEmpty)
  }

  // ---- feature selection --------------------------------------------------

  test("feature selection keeps informative attributes and drops constants") {
    val rows = (0 until 300).map { i =>
      val label = i % 2
      Array[Any](if (label == 0) "A" else "B", "const", Double.box(if (label == 0) 1.0 else 9.0))
    }
    val s = LocalSample(
      Vector(LocalSample.Attr("sig", false), LocalSample.Attr("konst", false), LocalSample.Attr("num", true)),
      rows.toVector, Vector.tabulate(300)(_ % 2))
    val sel = FeatureSelect.filterAttrs(s, Params(selAttrCount = 2))
    // `sig` and `num` are perfectly correlated (both determined by the
    // label), so clustering may keep only one representative of the pair —
    // but the constant column must never survive.
    assert(!sel.categorical.contains("konst"))
    assert(sel.categorical.contains("sig") || sel.numeric.contains("num"))
  }
  test("feature selection disabled keeps everything (Naive mode)") {
    val s = sampleOf(Seq(("x", "1"), ("y", "2")))
    val sel = FeatureSelect.filterAttrs(s, Params(featureSelection = false))
    assert(sel.categorical.toSet == Set("a", "b"))
  }
  test("correlated attributes collapse to one representative") {
    val rows = (0 until 300).map { i =>
      val label = i % 2
      val v = if (label == 0) 1.0 else 9.0
      Array[Any](Double.box(v), Double.box(v * 2), Double.box(scala.util.Random.nextGaussian()))
    }
    val s = LocalSample(
      Vector(LocalSample.Attr("age", true), LocalSample.Attr("age2", true), LocalSample.Attr("noise", true)),
      rows.toVector, Vector.tabulate(300)(_ % 2))
    val sel = FeatureSelect.filterAttrs(s, Params(selAttrCount = 3))
    assert(!(sel.numeric.contains("age") && sel.numeric.contains("age2")))
  }

  // ---- numeric fragments --------------------------------------------------

  test("numeric fragments return λ_#frag−1 interior boundaries") {
    import spark.implicits._
    val df = (1 to 100).map(i => (i.toLong, "t1", i.toDouble)).toDF("pt_id", "grp", "v")
    val frags = Mine.numericFragments(df, Seq("v"), nFragments = 4)
    assert(frags("v").size <= 3 && frags("v").nonEmpty)
    assert(frags("v").forall(b => b >= 1 && b <= 100))
  }
  test("fragments of a constant column collapse") {
    import spark.implicits._
    val df = (1 to 50).map(i => (i.toLong, "t1", 7.0)).toDF("pt_id", "grp", "v")
    val frags = Mine.numericFragments(df, Seq("v"), 4)
    assert(frags("v") == Seq(7.0))
  }

  // ---- diverse top-k ------------------------------------------------------

  private def qual(f: Double): Metrics.Quality =
    Metrics.Quality("t1", 1, 0, 0, f, f, f, (1, 1), (0, 1))

  test("selectDiverse returns the best F-score first") {
    val cands = Seq(
      (Pattern.of(Pred("a", OpEq, CatV("1"))), qual(0.9)),
      (Pattern.of(Pred("b", OpEq, CatV("2"))), qual(0.5)))
    val out = Mine.selectDiverse(cands, 2)
    assert(out.head._2.fscore == 0.9)
  }
  test("selectDiverse prefers dissimilar runners-up") {
    val cands = Seq(
      (Pattern.of(Pred("a", OpEq, CatV("1"))), qual(0.9)),
      (Pattern.of(Pred("a", OpEq, CatV("1")), Pred("b", OpEq, CatV("2"))), qual(0.85)),
      (Pattern.of(Pred("c", OpEq, CatV("3"))), qual(0.6)))
    val out = Mine.selectDiverse(cands, 2)
    // The near-duplicate (shares a=1) loses to the dissimilar c=3 pattern.
    assert(out.map(_._1.render).contains("c=3"))
  }
  test("selectDiverse caps at k and dedupes pattern+primary") {
    val cands = Seq(
      (Pattern.of(Pred("a", OpEq, CatV("1"))), qual(0.9)),
      (Pattern.of(Pred("a", OpEq, CatV("1"))), qual(0.9)),
      (Pattern.of(Pred("b", OpEq, CatV("2"))), qual(0.5)))
    assert(Mine.selectDiverse(cands, 5).size == 2)
  }

  // ---- MineAPT end-to-end -------------------------------------------------

  private val salaryJg = JoinGraph(
    Vector(JGNode(0, "PT"), JGNode(1, "player_salary"), JGNode(2, "player")),
    Vector(
      JGEdge(0, 1, Some("s"), JoinCond(Seq("season_id" -> "season_id"))),
      JGEdge(1, 2, None, JoinCond(Seq("player_id" -> "player_id")))))

  test("MineAPT returns at most k explanations above the recall threshold") {
    val res = Mine.mineJoinGraph(nba, q, pt, salaryJg, Params(topK = 5, f1SampleRate = 1.0))
    assert(res.explanations.size <= 5)
    assert(res.explanations.forall(_.quality.recall >= 0.2))
  }
  test("MineAPT explanations carry exact supports on the full provenance") {
    val (n1, n2) = Metrics.provSizes(pt)
    val res = Mine.mineJoinGraph(nba, q, pt, salaryJg, Params(topK = 5, f1SampleRate = 1.0))
    assert(res.explanations.forall(e => e.quality.support1._2 == n1 && e.quality.support2._2 == n2))
  }
  test("MineAPT on Ω₀ mines provenance-only patterns") {
    val res = Mine.mineJoinGraph(nba, q, pt, JoinGraph.empty, Params(topK = 5, f1SampleRate = 1.0))
    assert(res.explanations.nonEmpty)
    assert(res.explanations.forall(_.pattern.preds.forall(_.attr.startsWith("prov_"))))
  }
  test("MineAPT results are sorted by F-score") {
    val res = Mine.mineJoinGraph(nba, q, pt, salaryJg, Params(topK = 8, f1SampleRate = 1.0))
    val fs = res.explanations.map(_.fscore)
    assert(fs == fs.sortBy(-(_: Double)))
  }
  test("sampling (λ_F1-samp < 1) still returns plausible top patterns") {
    val full = Mine.mineJoinGraph(nba, q, pt, JoinGraph.empty, Params(topK = 5, f1SampleRate = 1.0))
    val sampled = Mine.mineJoinGraph(nba, q, pt, JoinGraph.empty, Params(topK = 5, f1SampleRate = 0.5))
    assert(sampled.explanations.nonEmpty)
    // Exact re-scoring means reported F-scores are comparable across runs.
    assert(math.abs(full.explanations.head.fscore - sampled.explanations.head.fscore) < 0.35)
  }
  test("numeric refinements appear when they sharpen precision") {
    val res = Mine.mineJoinGraph(nba, q, pt, salaryJg,
      Params(topK = 10, f1SampleRate = 1.0, selAttrCount = 4))
    assert(res.explanations.exists(_.pattern.numericPredCount > 0))
  }
  test("λ_attrNum bounds numeric predicates per pattern") {
    val res = Mine.mineJoinGraph(nba, q, pt, salaryJg,
      Params(topK = 10, f1SampleRate = 1.0, maxNumericPreds = 1))
    assert(res.explanations.forall(_.pattern.numericPredCount <= 1))
  }
  test("aptStats reports the APT shape for Figure 10a") {
    val res = Mine.mineJoinGraph(nba, q, pt, salaryJg, Params(topK = 3, f1SampleRate = 1.0))
    assert(res.aptStats.rows > 0 && res.aptStats.attributes > 0)
  }

  /** Spark jobs launched by `f`: jobs of the job group set around `f`,
    * counted up to a sentinel job, since the listener bus delivers events
    * in order.
    */
  private def sparkJobs(f: => Unit): Int = {
    val sc = spark.sparkContext
    val counted = new AtomicInteger
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull match {
          case "counted"  => counted.incrementAndGet()
          case "sentinel" => drained.countDown()
          case _          =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("counted", "jobs under test")
      try f finally sc.clearJobGroup()
      sc.setJobGroup("sentinel", "end of count")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      assert(drained.await(30, TimeUnit.SECONDS))
      counted.get
    } finally sc.removeSparkListener(listener)
  }

  test("refinement levels launch no Spark jobs: λ_attrNum 1 and 2 cost the same jobs") {
    // On Ω₀ feature selection keeps three numeric attributes, so the
    // second level has hundreds of expansions.
    def mine(levels: Int) =
      Mine.mineJoinGraph(nba, q, pt, JoinGraph.empty, Params(topK = 10, f1SampleRate = 1.0, maxNumericPreds = levels))
    // The first call on a freshly cached `pt` launches fewer jobs than
    // later ones; count from the second call on.
    mine(1)
    val one = sparkJobs(mine(1))
    val two = sparkJobs(mine(2))
    assert(one > 0 && two == one)
  }

  test("step timer accumulates the Figure 7 step names") {
    val timer = new Mine.StepTimer
    Mine.mineJoinGraph(nba, q, pt, salaryJg, Params(topK = 3), timer)
    assert(timer.seconds("Materialize APTs") > 0)
    assert(timer.seconds("Feature Selection") > 0)
    assert(timer.seconds("Gen. Pat. Cand.") >= 0)
    assert(timer.seconds("F-score Calc.") > 0)
  }
}
