package perfbench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.ml.LocalSample
import scala.collection.mutable

/** One traced pass over an `explain` call's layers, in pipeline order, with
  * one span per direct call into a module's public function. The mining
  * loop of each join graph is walked with the same public pieces `Mine`
  * uses (LCA candidates, `Metrics.coverage`, refinement by domain
  * fragments), so that pattern counts and the λ_recall pass rate can be
  * observed from outside; `Mine.mineJoinGraph` then runs as a whole and
  * supplies the result that is compared with the untraced call.
  */
final class Replay(spark: SparkSession) {

  val spans = mutable.ArrayBuffer.empty[Replay.Span]
  private val counts = mutable.LinkedHashMap.empty[String, Double]
  private var current = 0

  private def add(k: String, v: Double): Unit = counts(k) = counts.getOrElse(k, 0.0) + v
  private def max(k: String, v: Double): Unit = counts(k) = math.max(counts.getOrElse(k, v), v)

  /** Runs `f` inside a span; its Spark jobs are tagged with the span name. */
  def span[T](name: String)(f: => T): T = {
    val sc = spark.sparkContext
    val (parent, prevTag) = (current, sc.getLocalProperty(JobLog.SpanKey))
    val id = spans.size + 1
    current = id
    sc.setLocalProperty(JobLog.SpanKey, name)
    val t0 = System.nanoTime()
    try f
    finally {
      val t1 = System.nanoTime()
      sc.setLocalProperty(JobLog.SpanKey, prevTag)
      current = parent
      spans += Replay.Span(id, parent, name, t0, t1)
      add(s"$name.s", (t1 - t0) / 1e9)
    }
  }

  /** Replays one call and returns its ranked result plus layer counts. */
  def run(db: Schema.Database, q: Query.QuerySpec, uq: Query.UserQuestion, params: Params): Replay.Outcome = {
    val pt = span("Query.questionProvenance") {
      val p = Query.questionProvenance(db, q, uq).cache()
      add("Query.pt_rows", p.count().toDouble)
      p
    }
    try {
      val ptRows = counts("Query.pt_rows").toLong
      val graphs = span("Enumerate.enumerate") { Enumerate.enumerate(db, q, params, ptRows) }
      add("Enumerate.graphs", graphs.size)
      val cost = new Enumerate.CostModel(db)
      val estimates = span("CostModel.estimate") { graphs.map(cost.estimate(_, ptRows)) }
      val (n1, n2) = span("Metrics.provSizes") { Metrics.provSizes(pt) }

      val graphRows = mutable.ArrayBuffer.empty[Replay.GraphRows]
      val mined = graphs.zip(estimates).map { case (jg, est) =>
        val (apt, rows) = span("Apt.materialize") {
          val a = Apt.materialize(db, q, pt, jg).cache()
          (a, a.count())
        }
        try {
          graphRows += Replay.GraphRows(jg.describe, est, rows)
          add("Apt.rows", rows.toDouble)
          max("Apt.rows_max", rows.toDouble)
          if (rows == 0) add("Enumerate.empty_apts", 1)
          max("Enumerate.qerror_max", math.max(est, 1.0) / math.max(rows.toDouble, 1.0) max
            math.max(rows.toDouble, 1.0) / math.max(est, 1.0))
          if (n1 > 0 && n2 > 0) mineLayers(apt, Apt.patternColumns(apt, q), n1, n2, params)
          jg -> span("Mine.mineJoinGraph") { Mine.mineJoinGraph(db, q, pt, jg, params) }
        } finally apt.unpersist()
      }
      val all = mined.flatMap(_._2.explanations).sortBy(-_.fscore)
      Replay.Outcome(Cajade.Result(all, mined, graphs.size, new Mine.StepTimer), graphRows.toSeq, counts.toMap)
    } finally pt.unpersist()
  }

  /** The per-graph layers below `Mine.mineJoinGraph`, called one by one. */
  private def mineLayers(apt: org.apache.spark.sql.DataFrame, attrCols: Seq[String],
                         n1: Long, n2: Long, params: Params): Unit = {
    val sample = span("LocalSample.collect") {
      LocalSample.collect(apt, attrCols, params.patSampleRate, params.patSampleCap, params.seed)
    }
    val selected = span("FeatureSelect.filterAttrs") { FeatureSelect.filterAttrs(sample, params) }
    add("FeatureSelect.kept", selected.categorical.size + selected.numeric.size)
    val cands = span("Lca.candidates") { Lca.candidates(sample, selected.categorical, params.maxCatPreds) }
    add("Lca.candidates", cands.size)

    def useful(p: Pattern.Pattern, c: Metrics.Coverage): Boolean =
      Metrics.quality(c, n1, n2, "t1").recall >= params.recallThreshold ||
        Metrics.quality(c, n1, n2, "t2").recall >= params.recallThreshold
    def coverage(ps: Seq[Pattern.Pattern]): Seq[(Pattern.Pattern, Metrics.Coverage)] = {
      val cov = span("Metrics.coverage") { Metrics.coverage(apt, ps) }
      add("Metrics.patterns", ps.size)
      add("Mine.useful", ps.zip(cov).count { case (p, c) => useful(p, c) })
      ps.zip(cov)
    }

    val catCov = coverage(cands)
    val fragments = span("Mine.numericFragments") {
      Mine.numericFragments(apt, selected.numeric, params.nFragments)
    }
    // Level-wise numeric refinement, expanded as Algorithm 1 does.
    var frontier: Seq[Pattern.Pattern] = catCov.filter { case (p, c) => useful(p, c) }
      .sortBy { case (_, c) => -math.max(Metrics.quality(c, n1, n2, "t1").recall, Metrics.quality(c, n1, n2, "t2").recall) }
      .take(params.kCat).map(_._1) :+ Pattern.Pattern.empty
    val done = mutable.Set.empty[Pattern.Pattern] ++= cands += Pattern.Pattern.empty
    var level = 0
    while (frontier.nonEmpty && level < params.maxNumericPreds) {
      val expansions = (for {
        p <- frontier
        if p.numericPredCount < params.maxNumericPreds
        a <- selected.numeric
        if !p.attrs(a)
        op <- Seq(Pattern.OpLe, Pattern.OpGe)
        c <- fragments.getOrElse(a, Nil)
      } yield p.refined(Pattern.Pred(a, op, Pattern.NumV(c)))).distinct.filterNot(done).take(4096)
      done ++= expansions
      add("Mine.expansions", expansions.size)
      val evaluated = coverage(expansions)
      frontier = evaluated.filter { case (p, c) => useful(p, c) }
        .sortBy { case (_, c) => -math.max(Metrics.quality(c, n1, n2, "t1").fscore, Metrics.quality(c, n1, n2, "t2").fscore) }
        .take(params.maxFrontier).map(_._1)
      level += 1
    }
  }
}

object Replay {
  /** One public call: its id, the id of the span it ran inside (0 = none). */
  final case class Span(id: Int, parent: Int, name: String, start: Long, end: Long)
  /** A mined join graph with its estimated and actual APT rows. */
  final case class GraphRows(graph: String, estimated: Double, actual: Long)
  final case class Outcome(result: Cajade.Result, graphs: Seq[GraphRows], counts: Map[String, Double])
}
