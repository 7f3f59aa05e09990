package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import org.json4s._
import org.json4s.jackson.JsonMethods.{compact, pretty, render}
import repro.core.{Cajade, Mine}
import repro.core.Schema.Database
import scala.collection.mutable
import scala.util.control.NonFatal

/** Explain-latency benchmark: one closed-loop client calling
  * `Cajade.explain` on one workload.
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
  *
  * `--trace 0` times untraced calls and reports the end-to-end metrics;
  * `--trace 1` reports the per-layer metrics of traced calls and of one
  * replay of the pipeline, and writes the spans to `--out-dir`. The last
  * line of standard output is the result object, prefixed `result: `.
  */
object Main {

  final case class Opts(workload: String, seed: Option[Long], seconds: Double, trace: Boolean, outDir: String)

  val ShufflePartitions = 4
  /** Most Spark task threads; fewer when the JVM has fewer processors. */
  val Cores = 2
  /** Spacing of the derived seeds, so that the databases of runs with
    * nearby seeds do not overlap.
    */
  val SeedStride = 1000003L
  /** Explanations in the printed top-k and its digest. */
  val TopK = 10

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val w = Workloads.byName(opts.workload)
    val seed = opts.seed.getOrElse(w.defaultSeed)
    val cores = math.min(Cores, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // One call generates more distinct code than Spark's default 100-entry
      // cache holds, so each call would recompile tens of classes with
      // Janino, at a cost that varies from call to call.
      .config("spark.sql.codegen.cache.maxEntries", 5000)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(opts.outDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(opts.outDir, "warehouse").getAbsolutePath)
      // Bounded status store, so the retained heap levels off early.
      .config("spark.ui.retainedJobs", 200)
      .config("spark.ui.retainedStages", 200)
      .config("spark.ui.retainedTasks", 10000)
      .config("spark.sql.ui.retainedExecutions", 100)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val record = JObject(
      "workload" -> JString(w.name), "seed" -> JLong(seed),
      "data_seeds" -> JArray(dataSeeds(seed, if (opts.trace) 1 else w.databases).map(JLong(_)).toList),
      "dataset" -> JString(w.dataset),
      "sf" -> JDouble(w.sf), "params" -> JString(w.params.toString),
      "master" -> JString(spark.sparkContext.master),
      "shuffle_partitions" -> JInt(ShufflePartitions),
      "nproc" -> JInt(sys.props.get("perfbench.nproc").fold(Runtime.getRuntime.availableProcessors())(_.toInt)),
      "jvm_cpus" -> JInt(Runtime.getRuntime.availableProcessors()),
      "jvm" -> JString(System.getProperty("java.vm.version")),
      "spark" -> JString(spark.version), "trace" -> JBool(opts.trace))
    println(s"record: ${compact(render(record))}")
    println(f"jvm+session start: ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.1f s")
    val result =
      try {
        val bench = new Bench(spark, w, seed, opts)
        if (opts.trace) bench.traced(record) else bench.untraced()
      } finally spark.stop()
    println(f"jvm uptime at exit: ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.1f s")
    println(s"result: ${compact(render(result))}")
  }

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "out-dir")
    require(args.length % 2 == 0 && m.keySet.subsetOf(known) && m.contains("workload"),
      "usage: --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out-dir <dir>]")
    Opts(m("workload"), m.get("seed").map(_.toLong), m.getOrElse("seconds", "20").toDouble,
      m.getOrElse("trace", "0") == "1", m.getOrElse("out-dir", ".bench_build/perfbench"))
  }

  /** The seeds passed to the generator: the run's seed first. */
  def dataSeeds(seed: Long, n: Int): Seq[Long] = (0 until n).map(i => seed + i * SeedStride)

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def metric(value: Double, unit: String): JValue =
    JObject("value" -> JDouble(value), "unit" -> JString(unit))

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9
}

/** One benchmark run on one workload. */
final class Bench(spark: SparkSession, w: Workload, seed: Long, opts: Main.Opts) {
  import Main._

  private var attempted = 0
  private var failed = 0
  /** Check verdict per database and distinct result digest: each distinct
    * result of a run is verified once, identical results reuse the verdict.
    */
  private val verdicts = mutable.HashMap.empty[(Database, String), Seq[String]]

  /** Generates and caches one database per derived seed; returns them
    * and the seconds of each set-up.
    */
  private def setup(n: Int): (Seq[Database], Seq[Double]) = {
    val (dbs, times) = dataSeeds(seed, n).map { s =>
      val t0 = System.nanoTime()
      val db = w.generate(spark, s)
      db.tables.values.foreach(_.cache().count())
      (db, secondsSince(t0))
    }.unzip
    println(f"setup: ${times.map(t => f"$t%.3f").mkString(", ")} s (generate + cache, ${dbs.head.tables.size} tables each)")
    (dbs, times)
  }

  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** Runs and checks one call; returns the result with its wall and process
    * CPU seconds, or None when it threw or failed the output check.
    */
  private def call(db: Database, timer: Mine.StepTimer = new Mine.StepTimer): Option[(Cajade.Result, Double, Double)] = {
    attempted += 1
    try {
      val cpu0 = os.getProcessCpuTime
      val t0 = System.nanoTime()
      val res = Cajade.explain(db, w.q, w.uq, w.params, timer)
      val dt = secondsSince(t0)
      val cpu = (os.getProcessCpuTime - cpu0) / 1e9
      val errors = verdicts.getOrElseUpdate((db, OutputCheck.digest(res)), {
        val errs = (if (res.explanations.isEmpty) Seq("no explanations returned") else Nil) ++
          OutputCheck.verify(db, w.q, w.uq, res)
        println(s"check: ${if (errs.isEmpty) "ok" else s"FAILED (${errs.size} mismatches)"}, " +
          s"${res.explanations.size} explanations verified")
        errs.take(5).foreach(e => println(s"  mismatch: $e"))
        errs
      })
      if (errors.isEmpty) Some((res, dt, cpu)) else { failed += 1; None }
    } catch {
      case NonFatal(e) =>
        failed += 1
        println(s"call failed: $e")
        None
    }
  }

  private def heapAfterGcMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def printTop(res: Cajade.Result): Unit = {
    val top = OutputCheck.topLines(res, TopK)
    println(s"top-$TopK digest: ${OutputCheck.hash(top)}  (${res.joinGraphCount} join graphs, " +
      s"APT rows ${res.perGraph.map(_._2.aptStats.rows).mkString(",")})")
    top.zipWithIndex.foreach { case (l, i) => println(f"  ${i + 1}%2d. $l") }
  }

  /** Untimed calls on the first database before measuring: the first call
    * in a JVM compiles Spark's generated code, and a short second call still
    * speeds up as the JIT catches up. Later calls reuse nearly all generated
    * code, on any database.
    */
  private def warmUp(db: Database): Unit = {
    val times = (1 to w.warmUpCalls).map { _ =>
      val t0 = System.nanoTime()
      call(db)
      secondsSince(t0)
    }
    println(s"warm-up calls: ${times.map(t => f"$t%.3f").mkString(", ")} s")
  }

  private def result(metrics: Seq[(String, JValue)]): JObject = JObject(
    "correct" -> JBool(failed == 0 && attempted > 0),
    "attempted" -> JInt(attempted),
    "failed" -> JInt(failed),
    "metrics" -> JObject(metrics.toList))

  /** End-to-end metrics from untraced calls, made in turn on each
    * database, so that a metric does not hang on one data set.
    * `explain_s.p50` is the median of all timed calls; `top3_f` is the
    * mean over the databases of each one's mean.
    */
  def untraced(): JValue = {
    val (dbs, setupTimes) = setup(w.databases)
    warmUp(dbs.head)
    val times, top3 = dbs.map(_ => mutable.ArrayBuffer.empty[Double])
    val t0 = System.nanoTime()
    var n = 0
    while (n < dbs.size || secondsSince(t0) < opts.seconds) {
      val i = n % dbs.size
      n += 1
      call(dbs(i)).foreach { case (res, dt, _) =>
        if (times(i).isEmpty) printTop(res)
        times(i) += dt
        top3(i) += res.topExplanations(3).map(_.fscore).sum / 3
      }
    }
    val heapMb = heapAfterGcMb()
    times.zipWithIndex.foreach { case (ts, i) =>
      println(f"explain on database $i: ${ts.size} calls, ${ts.map(t => f"$t%.3f").mkString(", ")} s")
    }
    def meanOf(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
    val answered = dbs.indices.filter(i => times(i).nonEmpty)
    val metrics = Seq(
      "explain_s.p50" -> metric(median(times.flatten), "s"),
      "setup_s" -> metric(median(setupTimes), "s"),
      "heap_peak_mb" -> metric(heapMb, "MB"),
      "top3_f" -> metric(meanOf(answered.map(i => meanOf(top3(i).toSeq))), "F1"))
    metrics.foreach { case (k, v) =>
      println(f"  $k%-16s ${(v \ "value").values}%s ${(v \ "unit").values}%s") }
    result(metrics)
  }

  /** Per-layer metrics: traced calls alternating with untraced ones (for
    * the tracing overhead), then one replay of the layers.
    */
  def traced(record: JObject): JValue = {
    val sc = spark.sparkContext
    val (Seq(db), _) = setup(1)
    warmUp(db)
    val log = new JobLog
    val untracedTimes, untracedCpu, tracedTimes = mutable.ArrayBuffer.empty[Double]
    val steps = mutable.ArrayBuffer.empty[Map[String, Double]]
    val jobs = mutable.ArrayBuffer.empty[Seq[JobLog.JobSummary]]
    var reference: Option[Cajade.Result] = None
    val t0 = System.nanoTime()
    var n = 0
    while (n == 0 || secondsSince(t0) < opts.seconds) {
      n += 1
      call(db).foreach { case (res, dt, cpu) =>
        if (reference.isEmpty) { printTop(res); reference = Some(res) }
        untracedTimes += dt
        untracedCpu += cpu
      }
      sc.addSparkListener(log)
      log.clear()
      val timer = new Mine.StepTimer
      sc.setLocalProperty(JobLog.SpanKey, "Cajade.explain")
      val traced = call(db, timer)
      sc.setLocalProperty(JobLog.SpanKey, null)
      log.drain(sc)
      sc.removeSparkListener(log)
      traced.foreach { case (res, dt, _) =>
        tracedTimes += dt
        steps += timer.totals.toMap
        jobs += log.summary()
        reference.foreach(r => checkSame("traced call", r, res))
      }
    }

    // One replay of the layers, spans and jobs recorded.
    sc.addSparkListener(log)
    log.clear()
    val replay = new Replay(spark)
    attempted += 1
    val outcome =
      try Some(replay.span("Cajade.replay") { replay.run(db, w.q, w.uq, w.params) })
      catch { case NonFatal(e) => failed += 1; println(s"replay failed: $e"); None }
    log.drain(sc)
    sc.removeSparkListener(log)
    val replayJobs = log.summary()
    for (o <- outcome; r <- reference) checkSame("replay", r, o.result)

    val perCall = jobs.toSeq
    def mean(f: Seq[JobLog.JobSummary] => Double): Double =
      if (perCall.isEmpty) 0.0 else perCall.map(f).sum / perCall.size
    val nJobs = mean(_.size.toDouble)
    val jobSeconds = mean(_.map(_.jobS).sum)
    val m = mutable.LinkedHashMap.empty[String, JValue]
    m("spark.jobs") = metric(nJobs, "count")
    m("spark.stages") = metric(mean(_.map(_.stages).sum.toDouble), "count")
    m("spark.tasks") = metric(mean(_.map(_.tasks).sum.toDouble), "count")
    m("spark.job_s_mean") = metric(if (nJobs == 0) 0.0 else jobSeconds / nJobs, "s")
    m("spark.task_run_s") = metric(mean(_.map(_.taskRunS).sum), "s")
    def fileOf(j: JobLog.JobSummary): String = if (Bench.Files.contains(j.file)) j.file else JobLog.Other
    for (f <- Bench.Files :+ JobLog.Other) {
      m(s"spark.jobs.$f") = metric(mean(_.count(fileOf(_) == f).toDouble), "count")
      m(s"spark.job_s.$f") = metric(mean(_.filter(fileOf(_) == f).map(_.jobS).sum), "s")
    }
    Bench.Steps.foreach { case (step, key) =>
      m(s"Mine.step.${key}_s") = metric(median(steps.toSeq.map(_.getOrElse(step, 0.0))), "s")
    }

    val c = outcome.map(_.counts).getOrElse(Map.empty)
    def count(k: String): Double = c.getOrElse(k, 0.0)
    def spanJobs(name: String): Double = replayJobs.count(_.span == name).toDouble
    val covJobs = spanJobs("Metrics.coverage")
    m("Metrics.coverage_s") = metric(count("Metrics.coverage.s"), "s")
    m("Metrics.jobs") = metric(covJobs, "count")
    m("Metrics.patterns") = metric(count("Metrics.patterns"), "count")
    m("Metrics.patterns_per_job") = metric(if (covJobs == 0) 0.0 else count("Metrics.patterns") / covJobs, "count")
    m("Enumerate.s") = metric(count("Enumerate.enumerate.s"), "s")
    m("Enumerate.jobs") = metric(spanJobs("Enumerate.enumerate"), "count")
    m("Enumerate.graphs") = metric(count("Enumerate.graphs"), "count")
    m("Enumerate.empty_apts") = metric(count("Enumerate.empty_apts"), "count")
    m("Enumerate.qerror_max") = metric(count("Enumerate.qerror_max"), "ratio")
    m("Query.pt_s") = metric(count("Query.questionProvenance.s"), "s")
    m("Query.pt_rows") = metric(count("Query.pt_rows"), "rows")
    m("Apt.materialize_s") = metric(count("Apt.materialize.s"), "s")
    m("Apt.rows") = metric(count("Apt.rows"), "rows")
    m("Apt.rows_max") = metric(count("Apt.rows_max"), "rows")
    m("LocalSample.collect_s") = metric(count("LocalSample.collect.s"), "s")
    m("Lca.s") = metric(count("Lca.candidates.s"), "s")
    m("Lca.candidates") = metric(count("Lca.candidates"), "count")
    m("FeatureSelect.s") = metric(count("FeatureSelect.filterAttrs.s"), "s")
    m("FeatureSelect.kept") = metric(count("FeatureSelect.kept"), "count")
    m("Mine.fragments_s") = metric(count("Mine.numericFragments.s"), "s")
    m("Mine.mineJoinGraph_s") = metric(count("Mine.mineJoinGraph.s"), "s")
    m("Mine.expansions") = metric(count("Mine.expansions"), "count")
    m("Mine.useful_ratio") = metric(
      if (count("Metrics.patterns") == 0) 0.0 else count("Mine.useful") / count("Metrics.patterns"), "ratio")
    m("explain_cpu_s.p50") = metric(median(untracedCpu.toSeq), "s")
    m("explain_s.traced_p50") = metric(median(tracedTimes.toSeq), "s")
    m("trace.overhead_s") = metric(median(tracedTimes.toSeq) - median(untracedTimes.toSeq), "s")

    println(f"explain: ${untracedTimes.size} untraced / ${tracedTimes.size} traced calls, " +
      f"p50 ${median(untracedTimes.toSeq)}%.3f / ${median(tracedTimes.toSeq)}%.3f s")
    println("jobs per call by program file:")
    if (perCall.nonEmpty) perCall.flatten.groupBy(_.file).toSeq.sortBy(-_._2.size).foreach {
      case (f, js) => println(f"  $f%-14s ${js.size.toDouble / perCall.size}%8.1f jobs ${js.map(_.jobS).sum / perCall.size}%8.3f s")
    }
    writeSpans(record, replay, replayJobs, perCall, outcome.map(_.graphs).getOrElse(Nil))
    result(m.toSeq)
  }

  /** Compares a traced result with the untraced reference: same top-k
    * digest and same APT row count per join graph.
    */
  private def checkSame(what: String, ref: Cajade.Result, other: Cajade.Result): Unit = {
    def rows(r: Cajade.Result) = r.perGraph.map { case (jg, m) => jg.describe -> m.aptStats.rows }
    if (OutputCheck.topLines(ref, TopK) != OutputCheck.topLines(other, TopK) || rows(ref) != rows(other)) {
      failed += 1
      println(s"$what differs from the untraced call: top-k or APT rows changed")
    }
  }

  private def writeSpans(record: JObject, replay: Replay, replayJobs: Seq[JobLog.JobSummary],
                         perCall: Seq[Seq[JobLog.JobSummary]], graphs: Seq[Replay.GraphRows]): Unit = {
    val base = replay.spans.map(_.start).minOption.getOrElse(0L)
    val jobsBySpan = replayJobs.groupBy(_.span)
    val spans = replay.spans.sortBy(_.start).map { s =>
      JObject("id" -> JInt(s.id), "parent" -> JInt(s.parent), "name" -> JString(s.name),
        "start_ms" -> JDouble((s.start - base) / 1e6), "dur_ms" -> JDouble((s.end - s.start) / 1e6))
    }
    val files = perCall.flatten.groupBy(_.file).toSeq.sortBy(_._1).map { case (f, js) =>
      JObject("file" -> JString(f), "jobs_per_call" -> JDouble(js.size.toDouble / perCall.size),
        "stages_per_call" -> JDouble(js.map(_.stages).sum.toDouble / perCall.size),
        "tasks_per_call" -> JDouble(js.map(_.tasks).sum.toDouble / perCall.size),
        "job_s_per_call" -> JDouble(js.map(_.jobS).sum / perCall.size))
    }
    val spanJobs = jobsBySpan.toSeq.sortBy(_._1).map { case (s, js) =>
      JObject("span" -> JString(s), "jobs" -> JInt(js.size), "job_s" -> JDouble(js.map(_.jobS).sum))
    }
    val graphRows = graphs.map(g => JObject("graph" -> JString(g.graph),
      "estimated_rows" -> JDouble(g.estimated), "actual_rows" -> JInt(g.actual)))
    graphs.foreach(g => println(f"  graph ${g.graph}: estimated ${g.estimated}%.0f, actual ${g.actual} APT rows"))
    val doc = JObject("record" -> record, "graphs" -> JArray(graphRows.toList), "spans" -> JArray(spans.toList),
      "replay_jobs_by_span" -> JArray(spanJobs.toList), "explain_jobs_by_file" -> JArray(files.toList))
    val dir = new File(opts.outDir, "traces")
    dir.mkdirs()
    val f = new File(dir, s"${w.name}-seed$seed.json")
    Files.write(f.toPath, pretty(render(doc)).getBytes(StandardCharsets.UTF_8))
    println(s"spans: ${f.getPath} (${spans.size} spans)")
  }
}

object Bench {
  /** Program files that launch Spark jobs during `explain`. */
  val Files: Seq[String] = Seq("Cajade", "Enumerate", "Mine", "Metrics", "LocalSample")

  /** `Mine.StepTimer` step names (paper Fig. 7 rows) and metric keys. */
  val Steps: Seq[(String, String)] = Seq(
    "JG Enum." -> "jg_enum", "Materialize APTs" -> "materialize", "Sampling for F1" -> "f1_sampling",
    "Feature Selection" -> "feature_selection", "Gen. Pat. Cand." -> "gen_cand",
    "F-score Calc." -> "fscore", "Refine Patterns" -> "refine")
}
