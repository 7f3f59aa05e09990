package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.{SparkSpec, TestData}
import repro.core.Query._
import repro.core.Schema._
import repro.data.{Mimic, Nba}
import repro.exp.Tables
import repro.study.UserStudy

/** The driver-side joins against their Spark reference: the PT that
  * `Join.provenance` builds must hold the rows of `Query.questionProvenance`,
  * and the APT `Join.Apts` builds from its parent the rows of
  * `Apt.materialize`, as multisets of rows with the same columns in the same
  * order (`pt_id` aside).
  */
class JoinSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private lazy val mimic = TestData.mimic(spark)

  /** Every graph of λ_#edges ≤ 3 is enumerated and mined. */
  private val deep = Params(maxEdges = 3, maxJoinGraphs = 100000, qCostThreshold = Double.MaxValue, f1SampleRate = 0.3)

  /** The rows of `t` as (grp, the join key of each cell): `Double`s by
    * their normalized bits, strings as strings, null as null.
    */
  private def rows(t: Metrics.Table): Map[Seq[Any], Int] =
    (0 until t.rows).map(i => (if (i < t.t1Rows) "t1" else "t2") +: t.names.map(t.column(_).key(i)))
      .groupBy(identity).map { case (r, rs) => r -> rs.size }

  private def sparkTable(df: DataFrame): Metrics.Table =
    Metrics.Table.collect(df, df.columns.toSeq.filterNot(Set("pt_id", "grp")))

  private def assertSame(driver: Metrics.Table, spark: Metrics.Table, what: String): Unit = {
    assert(driver.names == spark.names, what)
    assert(driver.t1Rows == spark.t1Rows && driver.rows == spark.rows, what)
    assert(rows(driver) == rows(spark), what)
  }

  /** The PT of each of `questions` built on the driver against Spark's:
    * on `db` once it has answered all of them, and on a fresh copy of
    * `db`. No question's rows leak into the relations a database holds.
    */
  private def checkPts(db: Database, questions: Seq[(QuerySpec, UserQuestion)]): Unit = {
    questions.foreach { case (q, uq) => Join.Apts(db, q, uq, deep) }
    questions.foreach { case (q, uq) =>
      val reference = sparkTable(Query.questionProvenance(db, q, uq))
      assertSame(Join.Apts(db, q, uq, deep).pt, reference, s"${q.name} $uq")
      assertSame(Join.Apts(db.copy(), q, uq, deep).pt, reference, s"${q.name} $uq on a fresh copy")
    }
  }

  /** The APT of each graph of `only`, or else of every graph enumerated
    * under `params`, against Spark's; returns the number of graphs.
    */
  private def checkApts(db: Database, q: QuerySpec, uq: UserQuestion, params: Params = deep,
                        only: Option[Seq[JoinGraph]] = None): Int = {
    val apts = Join.Apts(db, q, uq, params)
    val pt = Query.questionProvenance(db, q, uq).cache()
    val before = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", 4L)
    try {
      val graphs = only.getOrElse(Enumerate.enumerate(db, q, params, apts.pt.rows.toLong))
      graphs.foreach(jg => assertSame(apts(jg), sparkTable(Apt.materialize(db, q, pt, jg)), jg.describe))
      graphs.size
    } finally {
      spark.conf.set("spark.sql.shuffle.partitions", before)
      pt.unpersist()
    }
  }

  test("the driver PT equals Spark's for every NBA and MIMIC question of Tables 4 and 6") {
    checkPts(nba, Tables.nbaCases.flatMap { case (q, s1, s2, _) =>
      val uq = Nba.seasonQuestion(q, s1, s2)
      Seq(q -> uq, q -> SinglePoint(uq.t1))
    })
    checkPts(mimic, Tables.mimicCases.flatMap { case (q, v1, v2, _) =>
      val uq = Mimic.question(q, v1, v2)
      Seq(q -> uq, q -> SinglePoint(uq.t1))
    })
  }

  test("the driver APT equals Spark's for every graph of UQ₁ at λ_#edges = 3") {
    val n = checkApts(nba, Nba.qNba4, Nba.seasonQuestion(Nba.qNba4, "2015-16", "2012-13"))
    assert(n > 100)
  }

  test("the driver APT equals Spark's for every graph of MIMIC UQ₂ at λ_#edges = 3") {
    val n = checkApts(mimic, Mimic.qMimicInsurance, Mimic.question(Mimic.qMimicInsurance, "Medicare", "Private"))
    assert(n > 100)
  }

  test("the driver APT equals Spark's for the hand-built graphs of the experiments") {
    val uq1 = Nba.seasonQuestion(Nba.qNba4, "2015-16", "2012-13")
    // Figure 10a's Ω₂, and the APT of Figure 11 and Table 10, built with the benchmark parameters.
    checkApts(nba, Nba.qNba4, uq1, Tables.benchParams, Some(Seq(Tables.omega2, Nba.pgsPlayerJg)))
    // Figure 10a's Ω₄.
    checkApts(mimic, Mimic.qMimicInsurance, Mimic.question(Mimic.qMimicInsurance, "Medicare", "Private"),
      Tables.benchParams, Some(Seq(Tables.omega4)))
    // The study explanations' graphs, with the default parameters.
    checkApts(nba, Nba.qNba4, uq1, Params.default, Some(Seq(Nba.pgsPlayerJg, UserStudy.tgsJg)))
  }

  // ---- NULL, Int, Double and string keys ----------------------------------

  /** A query relation `r` and three context relations whose keys are
    * nullable Ints, Doubles with −0.0, 0.0 and NaN, an Int joined with a
    * Double, and strings.
    */
  private lazy val keyed: Database = {
    def df(schema: Seq[(String, DataType)], rows: Seq[Seq[Any]]): DataFrame =
      spark.createDataFrame(spark.sparkContext.parallelize(rows.map(Row.fromSeq), 3),
        StructType(schema.map { case (n, t) => StructField(n, t) }))
    val r = df(Seq("id" -> IntegerType, "k" -> DoubleType, "s" -> StringType, "g" -> StringType, "v" -> IntegerType),
      Seq(
        Seq(1, 0.0, "a", "x", 10), Seq(2, -0.0, "b", "x", 11), Seq(null, Double.NaN, null, "x", 12),
        Seq(3, null, "a", "y", 13), Seq(4, Double.NaN, "c", "y", 14), Seq(null, 2.5, "b", "y", 15),
        Seq(1, 2.5, "a", "y", 16), Seq(5, 7.0, null, "z", 17)))
    val c1 = df(Seq("id" -> IntegerType, "name" -> StringType, "s" -> StringType),
      Seq(Seq(1, "one", "a"), Seq(1, "uno", "b"), Seq(null, "none", "a"), Seq(3, "three", null), Seq(4, null, "c")))
    val c2 = df(Seq("k" -> DoubleType, "kd" -> DoubleType, "tag" -> StringType),
      Seq(Seq(0.0, 1.0, "zero"), Seq(-0.0, 2.0, "negzero"), Seq(Double.NaN, 3.0, "nan"), Seq(null, 1.0, "null"),
        Seq(2.5, null, "half"), Seq(2.5, 4.0, "half2"), Seq(-0.0, 0.0, "same"), Seq(Double.NaN, Double.NaN, "same")))
    val c3 = df(Seq("s" -> StringType, "w" -> DoubleType),
      Seq(Seq("a", 1.5), Seq("b", null), Seq(null, 3.0), Seq("c", -0.0), Seq("a", 2.5)))
    val sg = SchemaGraph(
      Map("r" -> RelMeta("r", Seq("id")), "c1" -> RelMeta("c1", Seq("id")),
        "c2" -> RelMeta("c2", Nil), "c3" -> RelMeta("c3", Seq("s"))),
      Seq(
        SchemaEdge("r", "c1", Seq(JoinCond(Seq("id" -> "id")))),
        SchemaEdge("r", "c2", Seq(JoinCond(Seq("k" -> "k")), JoinCond(Seq("id" -> "kd")))),
        SchemaEdge("r", "c3", Seq(JoinCond(Seq("s" -> "s")), JoinCond(Seq("k" -> "w")))),
        SchemaEdge("c1", "c3", Seq(JoinCond(Seq("s" -> "s")))),
        SchemaEdge("c2", "c3", Seq(JoinCond(Seq("k" -> "w"))))))
    Database(Map("r" -> r, "c1" -> c1, "c2" -> c2, "c3" -> c3), sg)
  }
  private val byG = QuerySpec("by_g", Seq("r" -> "r"), Nil, Nil, Seq("r" -> "g"), CountStar("n"))
  private val withC1 = QuerySpec("with_c1", Seq("r" -> "r", "c1" -> "c"), Seq((("r", "id"), ("c", "id"))),
    Nil, Seq("r" -> "g"), CountStar("n"))
  /** A join condition between two attributes of one alias. */
  private val sameKeys = QuerySpec("same_keys", Seq("c2" -> "c"), Seq((("c", "k"), ("c", "kd"))),
    Nil, Seq("c" -> "tag"), CountStar("n"))
  private val xy = TwoPoint(Map("prov_r_g" -> "x"), Map("prov_r_g" -> "y"))

  test("NULL never matches, and Int, Double and string keys join as in Spark") {
    checkPts(keyed, for (q <- Seq(byG, withC1); uq <- Seq(xy, SinglePoint(Map("prov_r_g" -> "y")))) yield q -> uq)
    checkPts(keyed, Seq(sameKeys -> SinglePoint(Map("prov_c_tag" -> "same"))))
    assert(Join.Apts(keyed, sameKeys, SinglePoint(Map("prov_c_tag" -> "same")), deep).pt.rows == 2)
    val n = checkApts(keyed, byG, xy)
    assert(n > 20)
    checkApts(keyed, withC1, SinglePoint(Map("prov_r_g" -> "y")))
    // The rows that carry NULL or NaN keys.
    val pt = Join.Apts(keyed, byG, xy, deep).pt
    assert(pt.rows == 7)
    val nan = JoinGraph(Vector(JGNode(0, "PT"), JGNode(1, "c2")),
      Vector(JGEdge(0, 1, Some("r"), JoinCond(Seq("k" -> "k")))))
    // 0.0 and -0.0 meet the three zeros, NaN both NaNs, 2.5 both halves, null nothing.
    assert(Join.Apts(keyed, byG, xy, deep)(nan).rows == 3 + 3 + 2 + 0 + 2 + 2 + 2)
  }

  test("a key that compares a number with a string is rejected") {
    val jg = JoinGraph(Vector(JGNode(0, "PT"), JGNode(1, "c3")),
      Vector(JGEdge(0, 1, Some("r"), JoinCond(Seq("id" -> "s")))))
    val e = intercept[IllegalArgumentException](Join.Apts(keyed, byG, xy, deep)(jg))
    assert(e.getMessage.contains("prov_r_id = s compares a number with a string"))
  }
}
