package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.Pattern._
import scala.util.Random

/** Coverage (Definition 7) checked against its SQL form on DuckDB: for
  * random patterns over small APTs, `Metrics.coverage` must equal
  * `SELECT grp, COUNT(DISTINCT pt_id) … WHERE <pattern> GROUP BY grp`.
  */
class CoverageOracleSpec extends SparkSpec {
  import spark.implicits._

  /** (pt_id, grp, s, i, d) */
  private type AptRow = (Long, String, Option[String], Option[Int], Option[Double])

  private def toDf(rows: Seq[AptRow]): DataFrame = rows.toDF("pt_id", "grp", "s", "i", "d")

  /** Oracle tables are all VARCHAR, so numeric predicates cast the column
    * to DOUBLE, as Spark widens an Int column compared with a Double.
    */
  private def sqlOf(p: Pattern): String = {
    val conds = p.preds.map {
      case Pred(a, OpEq, CatV(v)) => s"$a = '${v.replace("'", "''")}'"
      case Pred(a, op, NumV(c))   => s"CAST($a AS DOUBLE) ${op.sym} CAST('$c' AS DOUBLE)"
      case pr                     => throw new IllegalArgumentException(pr.render)
    }
    val where = if (conds.isEmpty) "TRUE" else conds.mkString(" AND ")
    s"SELECT grp, COUNT(DISTINCT pt_id) AS n FROM apt WHERE $where GROUP BY grp"
  }

  /** A random conjunction over s (=), i and d (mostly <= and >=, some =),
    * with constants drawn from the column's values plus one absent value.
    */
  private def randomPattern(rnd: Random, rows: Seq[AptRow]): Pattern = {
    def pick[T](xs: Seq[T]): T = xs(rnd.nextInt(xs.size))
    def numOp: Op = if (rnd.nextInt(5) == 0) OpEq else if (rnd.nextBoolean()) OpLe else OpGe
    val strs = rows.flatMap(_._3).distinct :+ "zz"
    val ints = rows.flatMap(_._4).map(_.toDouble).distinct :+ 4.5
    val dbls = rows.flatMap(_._5).distinct :+ 1.0
    Pattern.of(Seq(
      Option.when(rnd.nextBoolean())(Pred("s", OpEq, CatV(pick(strs)))),
      Option.when(rnd.nextBoolean())(Pred("i", numOp, NumV(pick(ints)))),
      Option.when(rnd.nextBoolean())(Pred("d", numOp, NumV(pick(dbls))))).flatten: _*)
  }

  private def checkAgainstDuckDb(rows: Seq[AptRow], seed: Long, n: Int): Unit = {
    val df = toDf(rows).cache()
    val rnd = new Random(seed)
    val patterns = Pattern.empty +: Seq.fill(n)(randomPattern(rnd, rows))
    // One batched call, then every pattern against its own SQL query.
    val covs = Metrics.coverage(df, patterns)
    patterns.zip(covs).foreach { case (p, c) =>
      val got = Seq("t1" -> c.cov1, "t2" -> c.cov2).filter(_._2 > 0).toDF("grp", "n")
      withClue(s"${p.render}: ") { Oracle.assertEquivalent(got, sqlOf(p), "apt" -> df) }
    }
    df.unpersist()
  }

  private def randomRows(rnd: Random, n: Int, ptIds: Int): Seq[AptRow] = Seq.fill(n) {
    val pt = 1L + rnd.nextInt(ptIds)
    def maybe[T](v: => T): Option[T] = if (rnd.nextInt(7) == 0) None else Some(v)
    (pt, if (pt % 3 == 0) "t2" else "t1",
      maybe(Seq("a", "b", "c", "O'Brien")(rnd.nextInt(4))),
      maybe(rnd.nextInt(10)),
      maybe(Seq(-1.5, 0.0, 0.5, 2.25, 3.0)(rnd.nextInt(5))))
  }

  test("kernel matches DuckDB with NULLs and pt_ids of many rows, only some matching") {
    val rows: Seq[AptRow] = Seq(
      (1L, "t1", Some("a"), Some(1), Some(0.5)),
      (1L, "t1", None, Some(5), None),
      (1L, "t1", Some("b"), None, Some(2.0)),
      (1L, "t1", Some("a"), Some(3), Some(-1.0)),
      (2L, "t1", None, None, None),
      (3L, "t1", Some("c"), Some(3), Some(2.0)),
      (3L, "t1", Some("a"), Some(7), Some(Double.NaN)),
      (10L, "t2", Some("a"), Some(3), Some(-0.0)),
      (10L, "t2", Some("b"), Some(3), Some(0.5)),
      (11L, "t2", None, Some(9), Some(2.0)),
      (12L, "t2", Some("c"), None, None),
    )
    checkAgainstDuckDb(rows, seed = 1, n = 40)
  }

  test("kernel matches DuckDB when a group has no rows") {
    val rows: Seq[AptRow] = Seq(
      (1L, "t1", Some("a"), Some(1), Some(0.5)),
      (1L, "t1", Some("b"), Some(2), None),
      (2L, "t1", None, Some(2), Some(1.0)),
      (4L, "t1", Some("a"), None, Some(3.0)),
    )
    checkAgainstDuckDb(rows, seed = 2, n = 25)
  }

  test("kernel matches DuckDB on random APTs") {
    val rnd = new Random(3)
    checkAgainstDuckDb(randomRows(rnd, 80, ptIds = 20), seed = 4, n = 40)
    checkAgainstDuckDb(randomRows(rnd, 60, ptIds = 5), seed = 5, n = 40)
  }
}
