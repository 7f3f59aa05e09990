package perfbench

import java.security.MessageDigest
import org.apache.spark.sql.functions._
import repro.core.{Apt, Cajade, Query}
import repro.core.Schema.Database

/** Independent check of an `explain` result against Definition 7.
  *
  * For every returned explanation the supports are recomputed independently:
  * the distinct `pt_id`s per `grp` of the APT rows matching the pattern,
  * and the per-`grp` totals of the PT. Precision, recall and F-score are
  * then derived and compared with what `explain` reported.
  */
object OutputCheck {

  /** Returns one message per mismatch; empty when the result checks out. */
  def verify(db: Database, q: Query.QuerySpec, uq: Query.UserQuestion, res: Cajade.Result): Seq[String] = {
    val pt = Query.questionProvenance(db, q, uq).cache()
    try {
      val totals = pt.groupBy("grp").agg(countDistinct("pt_id")).collect()
        .map(r => r.getString(0) -> r.getLong(1)).toMap
      val (n1, n2) = (totals.getOrElse("t1", 0L), totals.getOrElse("t2", 0L))
      res.explanations.groupBy(_.jg).toSeq.flatMap { case (jg, exps) =>
        val apt = Apt.materialize(db, q, pt, jg)
        // countDistinct ignores nulls, so each column counts exactly the
        // distinct pt_ids whose APT rows match pattern i.
        val covered = exps.indices.map(i => countDistinct(when(exps(i).pattern.toColumn, col("pt_id"))).as(s"c$i"))
        val byGrp = apt.groupBy("grp").agg(covered.head, covered.tail: _*).collect()
          .map(r => r.getString(0) -> r).toMap
        def cov(g: String, i: Int): Long = byGrp.get(g).map(_.getLong(i + 1)).getOrElse(0L)
        exps.zipWithIndex.flatMap { case (e, i) =>
          val (c1, c2) = (cov("t1", i), cov("t2", i))
          val (tp, fp, n) = if (e.quality.primary == "t1") (c1, c2, n1) else (c2, c1, n2)
          val p = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
          val r = if (n == 0) 0.0 else tp.toDouble / n
          val f = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
          val qu = e.quality
          val ok = qu.support1 == (c1, n1) && qu.support2 == (c2, n2) &&
            close(qu.precision, p) && close(qu.recall, r) && close(qu.fscore, f)
          if (ok) None
          else Some(f"${e.pattern.render} [${qu.primary}] on ${jg.describe}: reported sup=${qu.support1},${qu.support2} " +
            f"P=${qu.precision}%.6f R=${qu.recall}%.6f F=${qu.fscore}%.6f; expected sup=($c1,$n1),($c2,$n2) " +
            f"P=$p%.6f R=$r%.6f F=$f%.6f")
        }
      }
    } finally pt.unpersist()
  }

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9

  /** The ranked top-k a user sees, one line per explanation. */
  def topLines(res: Cajade.Result, k: Int): Seq[String] =
    res.topExplanations(k).map(e => s"${e.render}  [${e.jg.describe}]")

  /** Hash of everything `explain` returned: all explanations with their
    * supports, in rank order, plus the APT row count of every mined graph.
    */
  def digest(res: Cajade.Result): String = {
    val lines = res.explanations.map(e => s"${e.render} ${e.jg.describe}").sorted ++
      res.perGraph.map { case (jg, m) => s"${jg.describe} rows=${m.aptStats.rows}" }
    hash(lines)
  }

  def hash(lines: Seq[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes("UTF-8")))
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}
