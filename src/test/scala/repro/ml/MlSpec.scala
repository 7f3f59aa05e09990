package repro.ml

import repro.{SparkSpec, TestData}
import repro.core.Metrics
import scala.util.Random

/** Tests for the ML substrates: the local random forest used for relevance
  * ranking and the association measures used for attribute clustering.
  */
class MlSpec extends SparkSpec {

  private def mkSample(n: Int, seed: Long = 1)(row: (Random, Int) => (Seq[Any], Int)): Metrics.Table = {
    val rnd = new Random(seed)
    TestData.sample(Seq("num1" -> true, "num2" -> true, "cat1" -> false, "cat2" -> false),
      (0 until n).map(row(rnd, _)))
  }

  /** num1 and cat1 determine the label; num2/cat2 are noise. */
  private lazy val informative = mkSample(400) { (rnd, i) =>
    val label = i % 2
    val num1 = if (label == 0) 10 + rnd.nextGaussian() else 20 + rnd.nextGaussian()
    val cat1 = if (label == 0) "lo" else "hi"
    (Seq(num1, rnd.nextGaussian(), cat1, if (rnd.nextBoolean()) "x" else "y"), label)
  }

  test("random forest ranks informative attributes above noise") {
    val imp = RandomForest.featureImportance(informative)
    assert(imp("num1") + imp("cat1") > imp("num2") + imp("cat2"))
    assert(imp("num1") > imp("num2"))
  }
  test("importance is normalized to sum 1") {
    val imp = RandomForest.featureImportance(informative)
    assert(math.abs(imp.values.sum - 1.0) < 1e-6)
  }
  test("constant labels yield zero importance everywhere") {
    val s = informative.select(Array.range(0, informative.t1Rows), informative.names)
    val imp = RandomForest.featureImportance(s)
    assert(imp.values.forall(_ == 0.0))
  }
  test("empty sample is handled") {
    val s = informative.select(Array.empty, informative.names)
    assert(RandomForest.featureImportance(s).values.forall(_ == 0.0))
  }
  test("forest is deterministic in the seed") {
    val a = RandomForest.featureImportance(informative, seed = 9)
    val b = RandomForest.featureImportance(informative, seed = 9)
    assert(a == b)
  }

  /** Up to 240 rows whose labels lean on every column, with a null in any
    * cell: `zeros` holds −0.0, 0.0 and NaN among few values, `num` rounded
    * Gaussians and NaN, and `narrow`, `medium` and `wide` 2–4, 5–16 and
    * 17–31 categorical values.
    */
  private def randomSample(seed: Int): Metrics.Table = {
    val rnd = new Random(seed)
    val n = rnd.nextInt(241)
    val t2Share = rnd.nextDouble()
    val (narrow, medium, wide) = (2 + rnd.nextInt(3), 5 + rnd.nextInt(12), 17 + rnd.nextInt(15))
    def orNull(v: Any): Any = if (rnd.nextInt(12) == 0) null else v
    def cat(prefix: String, values: Int, label: Int): Any =
      orNull(s"$prefix${(rnd.nextInt(values) + label * rnd.nextInt(2)) % values}")
    TestData.sample(
      Seq("zeros" -> true, "num" -> true, "narrow" -> false, "medium" -> false, "wide" -> false),
      (0 until n).map { _ =>
        val label = if (rnd.nextDouble() < t2Share) 1 else 0
        val zeros = rnd.nextInt(6) match {
          case 0 => -0.0
          case 1 => 0.0
          case 2 => Double.NaN
          case k => (k - 3 + label) * 1.5
        }
        val num = if (rnd.nextInt(10) == 0) Double.NaN else math.rint(rnd.nextGaussian() * 4 + 3 * label)
        (Seq(orNull(zeros), orNull(num), cat("n", narrow, label), cat("m", medium, label), cat("w", wide, label)), label)
      })
  }

  test("count-based split search gives the reference forest's importances") {
    val allT1 = { val s = randomSample(1); s.select(Array.range(0, s.t1Rows), s.names) }
    assert(allT1.rows > 0)
    val empty = { val s = randomSample(0); s.select(Array.empty, s.names) }
    val samples = empty +: allT1 +: (2 until 222).map(randomSample)
    for (seed <- Seq(7L, 13L, 42L); (s, i) <- samples.zipWithIndex)
      assert(RandomForest.featureImportance(s, seed) == ReferenceForest.featureImportance(s, seed), s"sample $i, seed $seed")
    // Most samples split, so the importances compared are not all zero.
    assert(samples.count(RandomForest.featureImportance(_).values.sum > 0) > 150)
  }

  /** `s` with each categorical value v renamed to `rename(v)`; every other
    * cell, and the order of the rows, is kept.
    */
  private def relabel(s: Metrics.Table, rename: String => String): Metrics.Table = {
    val cols = s.names.map { a =>
      if (s.isNumeric(a)) s.doubles(a).toSeq
      else s.stringValues(a).toSeq.map(v => if (v == null) null else rename(v))
    }
    TestData.sample(s.names.map(a => a -> s.isNumeric(a)),
      (0 until s.rows).map(r => (cols.map(_(r)), if (r < s.t1Rows) 0 else 1)))
  }

  test("importances do not depend on the hash codes of categorical values") {
    // A common prefix keeps the strings' order and changes every hash code.
    val moved = for {
      (s, i) <- (2 until 222).map(randomSample).zipWithIndex
      renamed = relabel(s, "~" + _)
      seed <- Seq(7L, 13L, 42L)
      if RandomForest.featureImportance(renamed, seed) != RandomForest.featureImportance(s, seed)
    } yield (i + 2, seed)
    assert(moved.isEmpty, s"${moved.size} (sample, seed) pairs moved: ${moved.take(10)}")
  }

  test("a tie in count across the 16-value cut keeps the lower strings") {
    // 15 values of 20 rows, half of them t2's, and 10 pure values of 8
    // rows: the 16 candidates of the root are the 15 large values and the
    // most frequent of the small ones, so a tie among those picks the split.
    val rnd = new Random(17)
    val rows = rnd.shuffle((0 until 300).map(i => (s"b${i % 15}", i / 15 % 2)) ++
      (0 until 80).map(i => (s"s${i % 10}", i % 10 % 2)))
    val s = TestData.sample(Seq("wide" -> false, "num" -> true),
      rows.map { case (v, label) => (Seq(v, rnd.nextGaussian()), label) })
    val wide = s.stringValues("wide")
    // The root's weighted counts per value, from the first tree's draw.
    def cutInTie(seed: Long): Boolean = {
      val r = new Random(seed)
      val counts = Array.fill(s.rows)(r.nextInt(s.rows)).groupBy(wide(_)).values.map(_.length).toSeq.sorted.reverse
      counts.size > 16 && counts(15) == counts(16)
    }
    val seeds = (0L until 60L).filter(cutInTie)
    assert(seeds.size >= 5)
    for (seed <- seeds) {
      val imp = RandomForest.featureImportance(s, seed)
      assert(imp("wide") > 0, s"seed $seed")
      assert(imp == ReferenceForest.featureImportance(s, seed), s"seed $seed")
      assert(imp == RandomForest.featureImportance(relabel(s, "~" + _), seed), s"seed $seed")
    }
  }

  // ---- association measures ----------------------------------------------

  /** `xs` as a sample's string column: its dictionary codes, and the
    * dictionary.
    */
  private def codes(xs: Seq[String]): Array[Int] = column(xs).codes("c")
  private def strings(xs: Seq[String]): Array[String] = column(xs).strings("c")
  private def column(xs: Seq[String]): Metrics.Table = TestData.sample(Seq("c" -> false), xs.map(x => (Seq(x), 0)))

  test("pearson of a perfect linear relation is ±1") {
    val xs = Array.tabulate(50)(_.toDouble)
    assert(math.abs(Correlation.pearson(xs, xs.map(2 * _ + 3)) - 1.0) < 1e-9)
    assert(math.abs(Correlation.pearson(xs, xs.map(-1 * _)) + 1.0) < 1e-9)
  }
  test("pearson of independent noise is near 0") {
    val rnd = new Random(3)
    val xs = Array.fill(500)(rnd.nextGaussian())
    val ys = Array.fill(500)(rnd.nextGaussian())
    assert(math.abs(Correlation.pearson(xs, ys)) < 0.15)
  }
  test("pearson ignores NaN pairs") {
    val xs = Array(1.0, 2.0, Double.NaN, 4.0, 5.0)
    val ys = Array(2.0, 4.0, 6.0, 8.0, 10.0)
    assert(math.abs(Correlation.pearson(xs, ys) - 1.0) < 1e-9)
  }
  test("cramersV of identical columns is 1") {
    val xs = Vector.tabulate(60)(i => s"c${i % 3}")
    assert(Correlation.cramersV(codes(xs), codes(xs)) > 0.99)
  }
  test("cramersV of independent columns is near 0") {
    val rnd = new Random(5)
    val xs = Vector.fill(600)(s"a${rnd.nextInt(3)}")
    val ys = Vector.fill(600)(s"b${rnd.nextInt(3)}")
    assert(Correlation.cramersV(codes(xs), codes(ys)) < 0.15)
  }
  test("correlationRatio detects category-determined numerics") {
    val cats = Vector.tabulate(100)(i => s"g${i % 4}")
    val nums = cats.map(c => c.drop(1).toDouble * 10)
    assert(Correlation.correlationRatio(codes(cats), strings(cats), nums.toArray) > 0.99)
  }
  test("correlationRatio of unrelated pairs is small") {
    val rnd = new Random(7)
    val cats = Vector.fill(500)(s"g${rnd.nextInt(4)}")
    val nums = Vector.fill(500)(rnd.nextGaussian())
    assert(Correlation.correlationRatio(codes(cats), strings(cats), nums.toArray) < 0.2)
  }

  test("clustering groups the birth-date/age style duplicates") {
    val rnd = new Random(11)
    val base = Vector.fill(300)(rnd.nextGaussian() * 10 + 40)
    val s = TestData.sample(Seq("age" -> true, "birth" -> true, "noise" -> true),
      base.map(v => (Seq(v, 100 - v, rnd.nextGaussian()), 0)))
    val clusters = Correlation.cluster(s, Seq("age", "birth", "noise"), 0.9)
    assert(clusters.size == 2)
    assert(clusters.exists(c => c.toSet == Set("age", "birth")))
  }
  test("clustering with a high threshold keeps attributes apart") {
    val clusters = Correlation.cluster(informative, informative.names, 0.999)
    assert(clusters.size == 4)
  }

  // ---- LocalSample.collect ------------------------------------------------

  test("collect caps rows and carries types") {
    import spark.implicits._
    val df = (1 to 500).map(i => (i.toLong, "t" + (i % 2 + 1), i.toDouble, s"c${i % 5}"))
      .toDF("pt_id", "grp", "num", "cat")
    val s = LocalSample.collect(df, Seq("num", "cat"), 1.0, 100)
    assert(s.rows <= 100)
    assert(s.names == Seq("num", "cat") && s.isNumeric("num") && !s.isNumeric("cat"))
    assert(s.t1Rows > 0 && s.t1Rows < s.rows)
  }
  test("collect stratifies across both question groups") {
    import spark.implicits._
    val df = ((1 to 300).map(i => (i.toLong, "t1", i.toDouble)) ++ (1 to 10).map(i => (1000L + i, "t2", i.toDouble)))
      .toDF("pt_id", "grp", "num")
    val s = LocalSample.collect(df, Seq("num"), 1.0, 100)
    assert(s.rows - s.t1Rows == 10) // the whole minority group
    assert(s.t1Rows == 50)
  }
}
