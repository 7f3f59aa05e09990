package repro.core

import org.apache.spark.storage.StorageLevel
import repro.{SparkSpec, TestData}
import repro.core.Pattern._
import repro.core.Schema._
import repro.data.Nba
import scala.util.Random

/** Tests for LCA candidate generation, feature selection, and the MineAPT
  * pipeline (Algorithm 1).
  */
class MineSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private lazy val q = Nba.qNba4
  private lazy val uq = Nba.seasonQuestion(q, "2015-16", "2012-13")
  private lazy val pt = Query.questionProvenance(nba, q, uq).cache()

  // ---- LCA ----------------------------------------------------------------

  private def sampleOf(rows: Seq[(String, String)]): Metrics.Table =
    TestData.sample(Seq("a" -> false, "b" -> false), rows.map { case (x, y) => (Seq(x, y), 0) })

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
    val s = TestData.sample(Seq("a" -> false), Seq((Seq(null), 0), (Seq(null), 0)))
    assert(Lca.candidates(s, Seq("a"), 3).isEmpty)
  }
  test("LCA truncates wide agreements to the rarest maxPreds constants") {
    val s = TestData.sample(Seq("common" -> false, "rare" -> false),
      Seq.fill(9)((Seq("c", null), 0)) ++ Seq.fill(2)((Seq("c", "r"), 0)))
    val pats = Lca.candidates(s, Seq("common", "rare"), 1)
    assert(pats.forall(_.size == 1))
    assert(pats.contains(Pattern.of(Pred("rare", OpEq, CatV("r")))))
  }
  test("LCA on fewer than two rows yields nothing") {
    assert(Lca.candidates(sampleOf(Seq(("x", "1"))), Seq("a", "b"), 3).isEmpty)
  }

  /** The pairwise LCA loop as first written, one `Pattern` per sample
    * pair: the reference the coded kernel must reproduce exactly. Over
    * 250 000 pairs, it pairs the first ⌈m·nₜ/n⌉ rows of each tuple, for
    * the largest m with m(m−1)/2 ≤ 250 000.
    */
  private def referenceCandidates(sample: Metrics.Table, catAttrs: Seq[String], maxPreds: Int): Seq[Pattern] = {
    val maxPairs = 250000
    val attrs = catAttrs.filter(sample.names.contains)
    if (attrs.isEmpty || sample.rows < 2) return Nil
    val cols: Map[String, Vector[String]] = attrs.map(a => a -> sample.stringValues(a).toVector).toMap
    val freq: Map[String, Map[String, Int]] = cols.map { case (a, vs) =>
      a -> vs.filter(_ != null).groupBy(identity).map { case (v, g) => v -> g.size }
    }
    val all = 0 until sample.rows
    val rows =
      if (all.size * (all.size - 1) / 2 <= maxPairs) all
      else {
        val m = (2 to all.size).filter(m => m * (m - 1) / 2 <= maxPairs).max
        val (t1, t2) = all.partition(_ < sample.t1Rows)
        Seq(t1, t2).flatMap(t => t.take(math.ceil(m.toDouble * t.size / all.size).toInt))
      }
    val counts = scala.collection.mutable.Map.empty[Pattern, Int]
    for (x <- rows.indices; y <- x + 1 until rows.size) {
      val (i, j) = (rows(x), rows(y))
      val preds = attrs.flatMap { a =>
        val vi = cols(a)(i); val vj = cols(a)(j)
        if (vi != null && vi == vj) Some(Pred(a, OpEq, CatV(vi))) else None
      }
      if (preds.nonEmpty) {
        val kept =
          if (preds.size <= maxPreds) preds
          else preds.sortBy(p => freq(p.attr).getOrElse(p.value.render, 0)).take(maxPreds)
        val pat = Pattern.of(kept: _*)
        counts(pat) = counts.getOrElse(pat, 0) + 1
      }
    }
    counts.toSeq.sortBy { case (p, c) => (-c, p.render) }.map(_._1)
  }

  test("coded LCA kernel returns the reference candidates in the reference order") {
    val rnd = new Random(17)
    // Attribute names out of name order, so that predicate order and the
    // truncation's tie-break (attribute order) differ.
    val names = Vector("m", "c", "x", "a", "k", "b")
    def sample(n: Int, alphabet: Int, nullRate: Double): Metrics.Table = TestData.sample(
      names.map(_ -> false),
      Seq.fill(n)((Seq.fill[Any](names.size) {
        // Skewed values, so that value frequencies differ and also tie.
        if (rnd.nextDouble() < nullRate) null else "v" + math.min(rnd.nextInt(alphabet), rnd.nextInt(alphabet))
      }, rnd.nextInt(2))))
    val cases = Seq(
      // (rows, alphabet, null rate, maxPreds)
      (2, 2, 0.0, 3),
      (40, 3, 0.2, 3),
      (120, 2, 0.3, 2),   // most pairs agree on more than maxPreds attributes
      (150, 2, 0.0, 1),
      (60, 2, 0.1, 0),
      (760, 4, 0.1, 3),   // 288 420 pairs, more than the 250 000 examined
    )
    cases.foreach { case (n, alphabet, nullRate, maxPreds) =>
      val s = sample(n, alphabet, nullRate)
      val attrs = rnd.shuffle(names).take(5) :+ "absent"
      val expected = referenceCandidates(s, attrs, maxPreds)
      assert(expected.nonEmpty)
      assert(Lca.candidates(s, attrs, maxPreds) == expected, s"rows=$n maxPreds=$maxPreds")
    }
    // Samples of few distinct code vectors, each held by many rows, so
    // that pairs of vectors are counted with large weights. `tied` gives
    // attribute j of row i the value i mod period(j), so the values of an
    // attribute are equally frequent and the truncation ties on frequency.
    def tied(n: Int, period: Int => Int): Metrics.Table = TestData.sample(
      names.map(_ -> false),
      (0 until n).map(i => (names.indices.map[Any](j => "v" + i % period(j)), if (i % 3 == 0) 1 else 0)))
    val duplicates = Seq(
      // (name, sample, maxPreds)
      ("900 rows, 1 value", sample(900, 1, 0.1), 3),       // more than 250 000 pairs
      ("900 rows, 2 values", sample(900, 2, 0.0), 2),      // more than 250 000 pairs
      ("2 vectors", tied(300, _ => 2), 2),
      ("6 vectors", tied(900, j => 2 + j % 2), 1),         // more than 250 000 pairs
    )
    duplicates.foreach { case (name, s, maxPreds) =>
      val attrs = rnd.shuffle(names).take(5) :+ "absent"
      val expected = referenceCandidates(s, attrs, maxPreds)
      assert(expected.nonEmpty)
      assert(Lca.candidates(s, attrs, maxPreds) == expected, s"$name maxPreds=$maxPreds")
    }
  }

  test("LCA over more than 250 000 pairs still pairs t2's rows") {
    // 400 t1 rows with no agreement, then 500 t2 rows that all agree on
    // `c`: walked in sample order, the pairs of t1's rows alone exhaust
    // the cap before any two t2 rows meet.
    val s = TestData.sample(Seq("c" -> false),
      (0 until 400).map(i => (Seq[Any](s"u$i"), 0)) ++ Seq.fill(500)((Seq[Any]("z"), 1)))
    assert(Lca.candidates(s, Seq("c"), 3) == Seq(Pattern.of(Pred("c", OpEq, CatV("z")))))
  }

  // ---- feature selection --------------------------------------------------

  test("feature selection keeps informative attributes and drops constants") {
    val s = TestData.sample(Seq("sig" -> false, "konst" -> false, "num" -> true), (0 until 300).map { i =>
      val label = i % 2
      (Seq(if (label == 0) "A" else "B", "const", if (label == 0) 1.0 else 9.0), label)
    })
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
    val s = TestData.sample(Seq("age" -> true, "age2" -> true, "noise" -> true), (0 until 300).map { i =>
      val label = i % 2
      val v = if (label == 0) 1.0 else 9.0
      (Seq(v, v * 2, scala.util.Random.nextGaussian()), label)
    })
    val sel = FeatureSelect.filterAttrs(s, Params(selAttrCount = 3))
    assert(!(sel.numeric.contains("age") && sel.numeric.contains("age2")))
  }

  // ---- numeric fragments --------------------------------------------------

  test("numeric fragments return λ_#frag−1 interior boundaries") {
    import spark.implicits._
    val df = (1 to 100).map(i => (i.toLong, "t1", i.toDouble)).toDF("pt_id", "grp", "v")
    val frags = Mine.numericFragments(df, Seq("v"), nFragments = 4)
    assert(frags("v") == Seq(25.0, 50.0, 75.0))
  }
  test("numeric fragments are approxQuantile's exact quantiles over the rows without null or NaN") {
    import spark.implicits._
    val rnd = new Random(5)
    def maybe[T](v: => T): Option[T] = if (rnd.nextDouble() < 0.1) None else Some(v)
    val df = (0 until 400).map { i =>
      (i.toLong, if (i % 3 == 0) "t2" else "t1",
        maybe(if (rnd.nextDouble() < 0.05) Double.NaN else rnd.nextInt(30).toDouble),
        maybe(math.rint(rnd.nextGaussian() * 100) / 10),
        maybe(rnd.nextInt(12)))
    }.toDF("pt_id", "grp", "x", "y", "z")
    val cols = Array("x", "y", "z")
    for (k <- Seq(2, 4, 7)) {
      val probs = (1 until k).map(_.toDouble / k).toArray
      val exact = df.na.drop(cols.toSeq).stat.approxQuantile(cols, probs, 0.0)
      assert(Mine.numericFragments(df, cols.toSeq, k) == cols.zip(exact.map(_.toSeq.distinct)).toMap, s"λ_#frag=$k")
    }
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
  test("selectDiverse picks what re-scoring every candidate in every round picks") {
    // Constants 0.50001 and 0.50002 render alike; F comes from small counts, so it ties often.
    val constants = Seq(0.0, 1.5, 0.50001, 0.50002)
    var ties = 0
    for (seed <- 0 until 300) {
      val rnd = new Random(seed)
      def pred(a: String): Pred =
        if (a == "x") Pred(a, if (rnd.nextBoolean()) OpLe else OpGe, NumV(constants(rnd.nextInt(constants.size))))
        else Pred(a, OpEq, CatV(s"${rnd.nextInt(3)}"))
      def pattern(): Pattern = Pattern.of(rnd.shuffle(Seq("a", "b", "c", "x")).take(1 + rnd.nextInt(3)).map(pred): _*)
      val (n1, n2) = (3 + rnd.nextInt(5), 3 + rnd.nextInt(5))
      def quality(primary: String): Metrics.Quality =
        Metrics.quality(Metrics.Coverage(rnd.nextInt(n1 + 1), rnd.nextInt(n2 + 1)), n1, n2, primary)
      val base = Seq.fill(rnd.nextInt(60))(pattern() -> quality(if (rnd.nextBoolean()) "t1" else "t2"))
      // Repeated (pattern, primary) pairs, with the same quality or another.
      val repeats = base.filter(_ => rnd.nextInt(4) == 0).map { case (p, qu) => p -> (if (rnd.nextBoolean()) qu else quality(qu.primary)) }
      val pool = rnd.shuffle(base ++ repeats)
      ties += pool.size - pool.map(_._2.fscore).distinct.size
      for (k <- Seq(1, 3, 10, pool.size + 5))
        assert(Mine.selectDiverse(pool, k) == ReferenceKernels.selectDiverse(pool, k), s"seed $seed, k $k")
    }
    assert(ties > 3000)
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
  test("mining Ω₀ leaves the question's PT cached") {
    // On Ω₀ the APT is the PT frame itself.
    pt.cache().count()
    assert(pt.storageLevel != StorageLevel.NONE)
    Mine.mineJoinGraph(nba, q, pt, JoinGraph.empty, Params(topK = 5, f1SampleRate = 0.5))
    assert(pt.storageLevel != StorageLevel.NONE)
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

  test("refinement levels launch no Spark jobs: λ_attrNum 1 and 2 cost the same jobs") {
    // On Ω₀ feature selection keeps three numeric attributes, so the
    // second level has hundreds of expansions.
    def mine(levels: Int) =
      Mine.mineJoinGraph(nba, q, pt, JoinGraph.empty, Params(topK = 10, f1SampleRate = 1.0, maxNumericPreds = levels))
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
