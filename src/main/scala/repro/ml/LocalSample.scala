package repro.ml

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType

/** A small, driver-local sample of an APT, used by the sample-based steps
  * of the mining pipeline (feature relevance, attribute clustering, LCA
  * candidate generation). Numeric attributes are stored as Double (NaN for
  * null), categoricals as String (null preserved).
  */
final case class LocalSample(
    attrs: Vector[LocalSample.Attr],
    rows: Vector[Array[Any]],
    labels: Vector[Int], // 0 = provenance of t1, 1 = provenance of t2
) {
  def attrIndex(name: String): Int = attrs.indexWhere(_.name == name)
  def size: Int = rows.size

  def numericValues(i: Int): Vector[Double] =
    rows.map(r => r(i) match { case d: java.lang.Double => d.doubleValue; case _ => Double.NaN })
  def categoricalValues(i: Int): Vector[String] =
    rows.map(r => r(i) match { case s: String => s; case null => null; case x => x.toString })
}

object LocalSample {
  final case class Attr(name: String, numeric: Boolean)

  /** Collects up to `cap` rows of `apt` (stratified: cap/2 per question
    * tuple) over the given attribute columns plus `grp`, deterministically
    * via a hash-based sample at `fraction` before the cap is applied.
    */
  def collect(apt: DataFrame, attrCols: Seq[String], fraction: Double, cap: Int, seed: Long = 7): LocalSample = {
    val fields = apt.schema.fields.map(f => f.name -> f).toMap
    val attrs = attrCols.toVector.map { c =>
      Attr(c, fields(c).dataType.isInstanceOf[NumericType])
    }
    val projected = apt.select((attrCols :+ "grp").map(col): _*)
    val frac = math.min(1.0, math.max(fraction, 1e-6))
    val perGrp = math.max(1, cap / 2)
    val parts = Seq("t1", "t2").map { g =>
      val base = projected.filter(col("grp") === g)
      val sampled = if (frac >= 1.0) base else base.sample(withReplacement = false, frac, seed)
      val rows = sampled.limit(perGrp).collect()
      // A fractional sample of a tiny group can come back (near-)empty and
      // would starve feature selection and LCA; fall back to the full group.
      if (rows.length >= math.min(perGrp, 30)) rows else base.limit(perGrp).collect()
    }
    val rows = Vector.newBuilder[Array[Any]]
    val labels = Vector.newBuilder[Int]
    parts.zipWithIndex.foreach { case (rs, label) =>
      rs.foreach { r =>
        val arr = new Array[Any](attrs.size)
        var i = 0
        while (i < attrs.size) {
          val v = r.get(i)
          arr(i) =
            if (v == null) { if (attrs(i).numeric) Double.box(Double.NaN) else null }
            else if (attrs(i).numeric) Double.box(v.asInstanceOf[Number].doubleValue)
            else v.toString
          i += 1
        }
        rows += arr
        labels += label
      }
    }
    LocalSample(attrs, rows.result(), labels.result())
  }
}
