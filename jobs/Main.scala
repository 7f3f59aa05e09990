package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Tables
import scala.collection.immutable.ListMap

/** Runs one reproduced experiment and prints its table.
  *
  * Example:
  *   sbt "runMain repro.jobs.Main table4 0.1"
  *   spark-submit --class repro.jobs.Main target/scala-2.13/repro_2.13-*.jar <experiment> [sf]
  */
object Main {

  /** Experiment name → the lines it prints for a session and scale factor. */
  val experiments: ListMap[String, (SparkSession, Double) => Seq[String]] = ListMap(
    "table4" -> ((s, sf) => Tables.table4Nba(s, sf)),
    "table6" -> ((s, sf) => Tables.table6Mimic(s, sf)),
    "figure7-nba" -> ((s, sf) => Tables.figure7Breakdown(s, "NBA", sf)),
    "figure7-mimic" -> ((s, sf) => Tables.figure7Breakdown(s, "MIMIC", sf)),
    "figure10a" -> ((s, sf) => Tables.figure10aAptStats(s, sf)),
    "figure11" -> ((s, sf) => Tables.etComparison(s, sf)),
    "figure12" -> ((s, sf) => Tables.figure12VaryingQueries(s, sf)),
    "figure13" -> ((s, sf) => Tables.figure13Cape(s, sf)),
    "table8-9" -> { (s, sf) =>
      val (rated, t8) = Tables.table8Study(s, sf)
      t8 ++ Tables.table9RankQuality(rated)
    },
    "table10" -> ((s, sf) => Tables.table10EtPatterns(s, sf)),
  )

  /** `repro.jobs.Main <experiment> [sf]`, with sf defaulting to 0.1. */
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("")
    val run = experiments.getOrElse(name, throw new IllegalArgumentException(
      s"unknown experiment '$name'; known: ${experiments.keys.mkString(", ")}"))
    val sf = args.lift(1).map(_.toDouble).getOrElse(0.1)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("cajade-repro")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN") // job output should be the table itself
    run(spark, sf).foreach(println)
  }
}
