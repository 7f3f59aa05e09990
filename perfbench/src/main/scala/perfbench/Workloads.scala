package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{Params, Query}
import repro.core.Schema.Database
import repro.data.{Mimic, Nba}

/** The benchmark's workloads: one user question each, asked of
  * `databases` databases generated from seeds derived from the run's seed.
  * Every workload is one closed-loop client issuing `Cajade.explain` calls
  * back to back, in turn on each database.
  */
final case class Workload(
    name: String,
    dataset: String, // "nba" or "mimic"
    sf: Double,
    defaultSeed: Long,
    q: Query.QuerySpec,
    uq: Query.UserQuestion,
    params: Params,
    databases: Int = 3,
    warmUpCalls: Int = 2,
) {
  def generate(spark: SparkSession, seed: Long): Database =
    if (dataset == "nba") Nba.generate(spark, sf, seed) else Mimic.generate(spark, sf, seed)
}

object Workloads {

  /** `CajadeSpec`'s `fast` parameters (UQ₁), cut to one refinement level
    * (λ_attrNum = 1) and four promoted categorical patterns (k_cat = 4) so
    * that one call takes seconds, not a minute, on four cores.
    */
  private val fast = Params(maxEdges = 1, maxJoinGraphs = 1, topK = 5,
    f1SampleRate = 1.0, qCostThreshold = 5e5, maxNumericPreds = 1, kCat = 4)

  /** `Tables.benchParams` (λ_F1-samp = 0.3) at λ_#edges = 1, with the same cuts. */
  private val bench = repro.exp.Tables.benchParams.copy(maxEdges = 1, maxNumericPreds = 1, kCat = 4)

  private val insurance = Mimic.question(Mimic.qMimicInsurance, "Medicare", "Private")

  val all: Seq[Workload] = Seq(
    Workload("nba-uq1",
      "nba", 1.0, 11L, Nba.qNba4, Nba.seasonQuestion(Nba.qNba4, "2015-16", "2012-13"), fast),
    Workload("mimic-uq2",
      "mimic", 1.0, 29L, Mimic.qMimicInsurance, insurance, bench.copy(maxJoinGraphs = 1)),
    Workload("mimic-naive",
      "mimic", 0.1, 29L, Mimic.qMimicInsurance, insurance,
      bench.copy(featureSelection = false, f1SampleRate = 1.0), databases = 1, warmUpCalls = 1),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))
}
