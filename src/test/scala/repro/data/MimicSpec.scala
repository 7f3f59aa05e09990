package repro.data

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.core.Query

/** Generator tests for the synthetic MIMIC database: integrity plus the
  * clinical correlations the paper's Table 6 explanations rely on.
  */
class MimicSpec extends SparkSpec {

  private lazy val db = TestData.mimic(spark)

  test("all six relations of Figure 6 exist") {
    assert(db.tables.keySet == Set(
      "admissions", "patients", "patients_admit_info", "diagnoses", "procedures", "icustays"))
  }
  test("hadm_id is unique in admissions") {
    assert(db("admissions").select("hadm_id").distinct().count() == db("admissions").count())
  }
  test("subject_id is unique in patients") {
    assert(db("patients").select("subject_id").distinct().count() == db("patients").count())
  }
  test("admissions FK: subject resolves") {
    assert(db("admissions").join(db("patients"), Seq("subject_id"), "left_anti").count() == 0)
  }
  test("patients_admit_info mirrors admissions one-to-one") {
    assert(db("patients_admit_info").count() == db("admissions").count())
    assert(db("patients_admit_info").join(db("admissions"), Seq("hadm_id", "subject_id"), "left_anti").count() == 0)
  }
  test("diagnoses FK + at least one diagnosis per admission") {
    assert(db("diagnoses").join(db("admissions"), Seq("hadm_id"), "left_anti").count() == 0)
    assert(db("admissions").join(db("diagnoses"), Seq("hadm_id"), "left_anti").count() == 0)
  }
  test("procedures FK resolves") {
    assert(db("procedures").join(db("admissions"), Seq("hadm_id"), "left_anti").count() == 0)
  }
  test("icustays FK resolves and los_group matches los") {
    assert(db("icustays").join(db("admissions"), Seq("hadm_id"), "left_anti").count() == 0)
    val bad = db("icustays").collect().count { r =>
      Mimic.losGroup(r.getAs[Double]("los")) != r.getAs[String]("los_group")
    }
    assert(bad == 0)
  }
  test("hospital_expire_flag is 0/1") {
    assert(db("admissions").filter(!col("hospital_expire_flag").isin(0, 1)).count() == 0)
  }
  test("a patient who died in hospital has expire_flag=1") {
    val died = db("admissions").filter(col("hospital_expire_flag") === 1).select("subject_id").distinct()
    val joined = died.join(db("patients"), Seq("subject_id"))
    assert(joined.filter(col("expire_flag") =!= 1).count() == 0)
  }
  test("losGroup bins follow the paper's buckets") {
    assert(Mimic.losGroup(0.5) == "0-1" && Mimic.losGroup(1.5) == "1-2" &&
      Mimic.losGroup(3.0) == "2-4" && Mimic.losGroup(6.0) == "4-8" && Mimic.losGroup(12.0) == "x>8")
  }

  // ---- planted correlations ----------------------------------------------

  private lazy val deathByInsurance: Map[String, Double] =
    Query.run(db, Mimic.qMimicInsurance).collect()
      .map(r => r.getString(0) -> r.getAs[Number](1).doubleValue).toMap

  test("plant: Medicare death rate ≫ Private (UQ₂ / Q_mimic4)") {
    assert(deathByInsurance("Medicare") > deathByInsurance("Private") * 1.5)
  }
  test("plant: Medicare death rate > Medicaid (Q_mimic2)") {
    assert(deathByInsurance("Medicare") > deathByInsurance("Medicaid"))
  }
  test("plant: Medicare patients skew old") {
    val byIns = db("admissions").join(db("patients_admit_info"), Seq("hadm_id", "subject_id"))
      .groupBy("insurance").agg(avg("age").as("a")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(byIns("Medicare") > byIns("Private") + 5)
  }
  test("plant: Medicare admissions skew to EMERGENCY") {
    val emer = db("admissions").groupBy("insurance")
      .agg(avg(when(col("admission_type") === "EMERGENCY", 1.0).otherwise(0.0)).as("p"))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(emer("Medicare") > emer("Private") + 0.1)
  }
  test("plant: chapter 2 (neoplasms) deadlier than chapter 13 (Q_mimic1)") {
    val rates = Query.run(db, Mimic.qMimic1).collect()
      .map(r => r.getString(0) -> r.getAs[Number](1).doubleValue).toMap
    assert(rates("2") > rates("13"))
  }
  test("plant: ICU stay length tracks hospital stay length (Q_mimic3)") {
    val j = db("icustays").join(db("admissions"), Seq("hadm_id"))
    val long = j.filter(col("los_group") === "x>8").agg(avg("hospital_stay_length")).head().getDouble(0)
    val short = j.filter(col("los_group") === "0-1").agg(avg("hospital_stay_length")).head().getDouble(0)
    assert(long > short + 2)
  }
  test("plant: chapter-16 procedures accompany long stays") {
    val j = db("procedures").join(db("admissions"), Seq("hadm_id"))
    val p16 = j.filter(col("chapter") === "16").agg(avg("hospital_stay_length")).head().getDouble(0)
    val rest = j.filter(col("chapter") =!= "16").agg(avg("hospital_stay_length")).head().getDouble(0)
    assert(p16 > rest)
  }
  test("plant: Hispanic patients skew young and Catholic (Q_mimic5)") {
    val pai = db("patients_admit_info")
    val hisAge = pai.filter(col("ethnicity") === "Hispanic").agg(avg("age")).head().getDouble(0)
    val otherAge = pai.filter(col("ethnicity") =!= "Hispanic").agg(avg("age")).head().getDouble(0)
    assert(hisAge < otherAge - 5)
    val cath = pai.filter(col("ethnicity") === "Hispanic")
      .agg(avg(when(col("religion") === "Catholic", 1.0).otherwise(0.0))).head().getDouble(0)
    assert(cath > 0.5)
  }
  test("plant: Hispanic procedure count exceeds Asian (Q_mimic5 supports)") {
    val counts = Query.run(db, Mimic.qMimic5).collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(counts.getOrElse("Hispanic", 0L) > 0 && counts.getOrElse("Asian", 0L) > 0)
  }
  test("generation is deterministic in (sf, seed)") {
    val a = Mimic.generate(spark, sf = 0.02, seed = 3)("admissions").count()
    val b = Mimic.generate(spark, sf = 0.02, seed = 3)("admissions").count()
    assert(a == b)
  }
}
