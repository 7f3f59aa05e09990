package repro

import org.apache.spark.sql.SparkSession
import repro.core.Metrics
import repro.core.Schema.Database
import repro.data.{Mimic, Nba}

/** Shared, cached tiny databases for the unit-test run (SF≈0.05 NBA,
  * SF≈0.03 MIMIC). Generated once per JVM; tables are Spark-cached so the
  * many suites touching them stay fast.
  */
object TestData {
  private var nbaCache: Option[Database] = None
  private var mimicCache: Option[Database] = None

  def nba(spark: SparkSession): Database = synchronized {
    nbaCache.getOrElse {
      val d = Nba.generate(spark, sf = 0.05)
      d.tables.values.foreach(df => df.cache().count())
      nbaCache = Some(d); d
    }
  }

  def mimic(spark: SparkSession): Database = synchronized {
    mimicCache.getOrElse {
      val d = Mimic.generate(spark, sf = 0.03)
      d.tables.values.foreach(df => df.cache().count())
      mimicCache = Some(d); d
    }
  }

  /** A sample built on the driver: a table whose rows are each their own
    * PT tuple. `attrs` names each column and whether it is numeric; each
    * row gives its values (a number, a string or null) and its label, 0
    * for t1 and 1 for t2. The rows of t1 come first, each group in the
    * given order.
    */
  def sample(attrs: Seq[(String, Boolean)], rows: Seq[(Seq[Any], Int)]): Metrics.Table = {
    val ordered = rows.filter(_._2 == 0) ++ rows.filter(_._2 != 0)
    Metrics.Table(Array.tabulate(ordered.size)(_.toLong), rows.count(_._2 == 0),
      attrs.map(_._1).zipWithIndex.map { case (a, j) => a -> ordered.map(_._1(j)).toArray },
      attrs.filter(_._2).map(_._1).toSet)
  }
}
