package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.baseline.ExplanationTables
import repro.ml.{Correlation, LocalSample, RandomForest}
import scala.util.Random
import scala.util.hashing.MurmurHash3

/** Pins the mining front end on one seeded APT: the rows `LocalSample.draw`
  * keeps and their order, the forest's importances, the associations and
  * attributes of feature selection, the LCA candidates and an Explanation
  * Tables summary. Each of them decides which explanations are returned, so
  * a change to how the driver holds an APT must leave all of them as they
  * are.
  */
class FrontEndSpec extends SparkSpec {

  /** 700 APT rows (404 of t1): an Int, a Double with NaN, two strings and a
    * boolean (held as strings), each with nulls; 140 rows repeat an earlier
    * row under a new `pt_id`, a few of them twice. One string has nine
    * values, so the forest's candidate values tie in count; it orders
    * them by string, not by dictionary code or hash.
    */
  private lazy val table: Metrics.Table = {
    val rnd = new Random(3)
    def maybe(v: => Any): Any = if (rnd.nextDouble() < 0.1) null else v
    val distinct = (0 until 560).map { i =>
      val t1 = i % 7 < 4
      val shift = if (t1) 0 else 1
      Seq[Any](i.toLong, if (t1) "t1" else "t2",
        maybe(rnd.nextInt(5) + 2 * shift),
        maybe(if (rnd.nextDouble() < 0.05) Double.NaN else math.rint(rnd.nextGaussian() * 30) / 10 + shift),
        maybe(Seq("a", "b", "c", "d")(rnd.nextInt(3 + shift))),
        maybe("s" + rnd.nextInt(9)),
        maybe(rnd.nextBoolean()))
    }
    val repeats = (0 until 140).map(k => distinct(if (k < 20) k % 5 else k * 3)).zipWithIndex
      .map { case (r, k) => (10000L + k) +: r.tail }
    val schema = StructType(Seq(
      StructField("pt_id", LongType), StructField("grp", StringType), StructField("i", IntegerType),
      StructField("d", DoubleType), StructField("s", StringType), StructField("n", StringType),
      StructField("b", BooleanType)))
    val df = spark.createDataFrame(spark.sparkContext.parallelize((distinct ++ repeats).map(Row.fromSeq), 3), schema)
    Metrics.Table.collect(df, attrCols)
  }
  private val attrCols = Seq("i", "d", "s", "n", "b")
  private lazy val sample = LocalSample.draw(table, attrCols, 0.2, 200, 42)

  private def digest(xs: Seq[String]): Int = MurmurHash3.seqHash(xs)

  test("the sample keeps the same rows in the same order") {
    val cols = sample.names.map { a =>
      if (sample.isNumeric(a)) sample.doubles(a).map(v => s"$v")
      else sample.stringValues(a).map(v => s"$v")
    }
    val rows = (0 until sample.rows).map(r => cols.map(_(r)).mkString(","))
    assert(sample.names.map(a => s"$a:${sample.isNumeric(a)}") == Vector("i:true", "d:true", "s:false", "n:false", "b:false"))
    assert(rows.size == 141)
    assert(rows.take(4) == Seq("4.0,4.8,c,s8,false", "0.0,-3.4,c,null,false", "3.0,0.5,c,s8,false", "4.0,1.4,a,s0,null"))
    assert(digest(rows) == -1184715429)
  }

  test("the forest's importances and the attribute associations are unchanged") {
    val imp = RandomForest.featureImportance(sample)
    assert(attrCols.map(a => s"$a=${imp(a)}") == Seq("i=0.6399716615949484", "d=0.131235771013646",
      "s=0.08257940648702428", "n=0.10874826219002706", "b=0.03746489871435408"))
    val assoc = for (i <- attrCols.indices; j <- attrCols.indices if i < j)
      yield s"$i$j=${Correlation.association(sample, attrCols(i), attrCols(j))}"
    assert(assoc == Seq("01=0.08528959005899393", "02=0.2582568364743235", "03=0.20787994834468415",
      "04=0.044455205062470665", "12=0.13258331950127825", "13=0.21277242153879528", "14=0.061901798554505616",
      "23=0.32868942707092735", "24=0.0861415069665568", "34=0.2851799186299071"))
  }

  test("feature selection keeps the same attributes") {
    assert(Seq(FeatureSelect.filterAttrs(sample, Params()),
      FeatureSelect.filterAttrs(sample, Params(selAttrCount = 2, corrThreshold = 0.1, seed = 7))) ==
      Seq(FeatureSelect.Selected(Vector("s", "n", "b"), Vector("i", "d")), FeatureSelect.Selected(Vector(), Vector("i"))))
  }

  test("LCA returns the same candidates in the same order") {
    val cands = Lca.candidates(sample, Seq("s", "n", "b"), 3).map(_.render)
    val narrow = Lca.candidates(sample, Seq("b", "n", "s"), 1).map(_.render)
    assert(cands.size == 90 && narrow.size == 15)
    assert(cands.take(4) == Seq("b=false", "b=true", "s=c", "s=a"))
    assert(digest(cands) == 2081168357 && digest(narrow) == -1507075187)
  }

  test("an Explanation Tables summary of the sample is unchanged") {
    val out = ExplanationTables.summarize(sample, 5).map(e => s"${e.pattern.render} ${e.gain} ${e.cov1} ${e.cov2}")
    assert(out == Seq("i=bin3 0.12576159757153724 0 26", "i=bin0 0.09495894032123155 49 10",
      "b=true ∧ i=bin2 0.021266982239773947 8 1", "b=true ∧ d=bin3 0.019347938087928805 0 4",
      "n=s1 0.019347938087928805 4 0"))
  }
}
