package repro

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import perfbench.JobLog
import scala.jdk.CollectionConverters._

/** Base for every Spark test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM. Broadcast joins are disabled, as in the experiment
  * entry point, so the tiny test databases run the same shuffle joins
  * that provenance, APT materialization and coverage use at larger scale.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Spark jobs launched by `f`. */
  def sparkJobs(f: => Unit): Int = sparkJobFiles(f).size

  /** The program file that launched each Spark job of `f`, in the order
    * the jobs started: as `perfbench.JobLog` attributes a job, the file of
    * the first `repro.` frame of its call site (e.g. `Join`), or the call
    * site itself when it has none. Jobs of the job group set around `f`
    * are recorded up to a sentinel job, since the listener bus delivers
    * events in order.
    */
  def sparkJobFiles(f: => Unit): Seq[String] = {
    val sc = spark.sparkContext
    val files = new ConcurrentLinkedQueue[String]
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull match {
          case "counted"  =>
            val site = e.stageInfos.map(_.details).mkString("\n")
            files.add(JobLog.programFile(site).getOrElse(site))
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
      files.asScala.toSeq
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // One line in the test output that records the heap and parallelism
    // the run used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
