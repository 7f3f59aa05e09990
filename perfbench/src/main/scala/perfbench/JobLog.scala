package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import scala.collection.mutable

/** A `SparkListener` that logs every job, stage and task, and attributes
  * each job to the program source file that launched it: the first
  * `repro.*` frame of the job's call site (e.g. `Metrics.scala`). Jobs
  * whose call site has no program frame are attributed to `other`.
  *
  * Jobs also carry the benchmark's span name (the `perfbench.span` local
  * property), so the replay can count jobs per public call.
  */
final class JobLog extends SparkListener {
  import JobLog._

  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val stages = mutable.HashMap.empty[Int, StageRun]
  /** Call sites of SQL executions: jobs that adaptive execution submits
    * carry Spark-internal call sites, while their execution's is the
    * action the program called.
    */
  private val sqlSites = mutable.HashMap.empty[Long, String]

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => synchronized { sqlSites(e.executionId) = e.details }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val span = props.flatMap(p => Option(p.getProperty(SpanKey))).getOrElse("")
    val sqlSite = props.flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .flatMap(id => sqlSites.get(id.toLong))
    val sites = e.stageInfos.map(_.details) ++ sqlSite
    val file = sites.iterator.flatMap(programFile).nextOption().getOrElse(Other)
    jobs(e.jobId) = Job(span, file, e.stageIds, e.time)
    e.stageIds.foreach(stages.getOrElseUpdate(_, StageRun()))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stages.getOrElseUpdate(e.stageInfo.stageId, StageRun()).ran = true
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val s = stages.getOrElseUpdate(e.stageId, StageRun())
    s.tasks += 1
    if (e.taskMetrics != null) s.runMs += e.taskMetrics.executorRunTime
  }

  /** Blocks until every event posted before this call has been delivered:
    * runs a one-task sentinel job and waits for its end event (the bus
    * delivers in order, and a job's end is posted before its action
    * returns).
    */
  def drain(sc: SparkContext): Unit = {
    val before = sc.getLocalProperty(SpanKey)
    sc.setLocalProperty(SpanKey, Sentinel)
    sc.parallelize(Seq(1), 1).count()
    sc.setLocalProperty(SpanKey, before)
    val deadline = System.nanoTime() + 30e9.toLong
    while (synchronized(!jobs.values.exists(j => j.span == Sentinel && j.end >= 0)) &&
      System.nanoTime() < deadline) Thread.sleep(5)
    synchronized { jobs.filterInPlace((_, j) => j.span != Sentinel) }
  }

  def clear(): Unit = synchronized { jobs.clear(); stages.clear(); sqlSites.clear() }

  /** Per-job summary rows, with each stage counted on the first job that
    * ran it (a shuffle stage can be shared by later jobs and then skipped).
    */
  def summary(): Seq[JobSummary] = synchronized {
    val owned = mutable.HashSet.empty[Int]
    jobs.values.toSeq.map { j =>
      val mine = j.stageIds.filter(id => stages.get(id).exists(_.ran) && owned.add(id))
      JobSummary(j.span, j.file, mine.size, mine.map(stages(_).tasks).sum,
        mine.map(stages(_).runMs).sum / 1e3, math.max(0L, j.end - j.start) / 1e3)
    }
  }
}

object JobLog {
  val SpanKey = "perfbench.span"
  val Other = "other"
  private val Sentinel = "__drain__"
  private final case class Job(span: String, file: String, stageIds: Seq[Int],
                               start: Long, var end: Long = -1L)
  private final case class StageRun(var tasks: Int = 0, var runMs: Long = 0L, var ran: Boolean = false)
  private val Frame = """(?m)^\s*(?:at\s+)?repro\.[\w.$]+\(([\w$]+)\.scala:\d+\)""".r

  /** The program file a call site's first `repro.*` frame lies in. */
  def programFile(callSite: String): Option[String] =
    Option(callSite).flatMap(s => Frame.findFirstMatchIn(s).map(_.group(1)))

  final case class JobSummary(span: String, file: String, stages: Int, tasks: Int,
                              taskRunS: Double, jobS: Double)
}
