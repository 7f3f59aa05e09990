package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

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

  /** Spark jobs launched by `f`: jobs of the job group set around `f`,
    * counted up to a sentinel job, since the listener bus delivers events
    * in order.
    */
  def sparkJobs(f: => Unit): Int = {
    val sc = spark.sparkContext
    val counted = new AtomicInteger
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull match {
          case "counted"  => counted.incrementAndGet()
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
      counted.get
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
