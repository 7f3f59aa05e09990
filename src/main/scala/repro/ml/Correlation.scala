package repro.ml

import repro.core.Metrics

/** Attribute-correlation clustering (paper Section 3.1, "Clustering
  * Attributes based on Correlations").
  *
  * The paper uses VARCLUS; any method that groups strongly associated
  * attributes works (their words). We compute a pairwise association
  * matrix on the driver-local sample — |Pearson| for numeric/numeric,
  * Cramér's V for categorical/categorical, the correlation ratio η for
  * mixed pairs — and single-link cluster attributes whose association
  * exceeds a threshold. One representative per cluster survives.
  */
object Correlation {

  /** Association in [0, 1] between attributes `a` and `b` of the sample. */
  def association(sample: Metrics.Table, a: String, b: String): Double =
    (sample.isNumeric(a), sample.isNumeric(b)) match {
      case (true, true)   => math.abs(pearson(sample.doubles(a), sample.doubles(b)))
      case (false, false) => cramersV(sample.stringValues(a), sample.stringValues(b))
      case (true, false)  => correlationRatio(sample.stringValues(b), sample.doubles(a))
      case (false, true)  => correlationRatio(sample.stringValues(a), sample.doubles(b))
    }

  def pearson(xs: collection.Seq[Double], ys: collection.Seq[Double]): Double = {
    val pairs = xs.zip(ys).filterNot { case (a, b) => a.isNaN || b.isNaN }
    val n = pairs.size
    if (n < 3) return 0.0
    val mx = pairs.map(_._1).sum / n; val my = pairs.map(_._2).sum / n
    var sxy = 0.0; var sxx = 0.0; var syy = 0.0
    pairs.foreach { case (x, y) =>
      sxy += (x - mx) * (y - my); sxx += (x - mx) * (x - mx); syy += (y - my) * (y - my)
    }
    if (sxx <= 0 || syy <= 0) 0.0 else sxy / math.sqrt(sxx * syy)
  }

  /** Cramér's V from the contingency table of two categorical columns. */
  def cramersV(xs: collection.Seq[String], ys: collection.Seq[String]): Double = {
    val pairs = xs.zip(ys).filter { case (a, b) => a != null && b != null }
    val n = pairs.size
    if (n < 3) return 0.0
    val xCats = pairs.map(_._1).distinct
    val yCats = pairs.map(_._2).distinct
    if (xCats.size < 2 || yCats.size < 2) return 0.0
    val obs = pairs.groupBy(identity).map { case (k, v) => k -> v.size.toDouble }
    val xTot = pairs.groupBy(_._1).map { case (k, v) => k -> v.size.toDouble }
    val yTot = pairs.groupBy(_._2).map { case (k, v) => k -> v.size.toDouble }
    var chi2 = 0.0
    for (x <- xCats; y <- yCats) {
      val e = xTot(x) * yTot(y) / n
      val o = obs.getOrElse((x, y), 0.0)
      if (e > 0) chi2 += (o - e) * (o - e) / e
    }
    val k = math.min(xCats.size, yCats.size) - 1
    if (k <= 0) 0.0 else math.min(1.0, math.sqrt(chi2 / (n * k)))
  }

  /** Correlation ratio η: how much of the numeric variance the categories
    * explain — the standard mixed-pair association.
    */
  def correlationRatio(cats: collection.Seq[String], nums: collection.Seq[Double]): Double = {
    val pairs = cats.zip(nums).filter { case (c, v) => c != null && !v.isNaN }
    val n = pairs.size
    if (n < 3) return 0.0
    val mean = pairs.map(_._2).sum / n
    val ssTot = pairs.map(p => (p._2 - mean) * (p._2 - mean)).sum
    if (ssTot <= 0) return 0.0
    val ssBetween = pairs.groupBy(_._1).values.map { g =>
      val m = g.map(_._2).sum / g.size
      g.size * (m - mean) * (m - mean)
    }.sum
    math.sqrt(math.min(1.0, ssBetween / ssTot))
  }

  /** Single-link clusters of the sample's attributes `attrs` whose
    * pairwise association exceeds `threshold` (union–find), in input order.
    */
  def cluster(sample: Metrics.Table, attrs: Seq[String], threshold: Double): Seq[Seq[String]] = {
    val parent = scala.collection.mutable.Map(attrs.map(a => a -> a): _*)
    def find(x: String): String = if (parent(x) == x) x else { val r = find(parent(x)); parent(x) = r; r }
    def union(a: String, b: String): Unit = { val (ra, rb) = (find(a), find(b)); if (ra != rb) parent(ra) = rb }
    for {
      (a, i) <- attrs.zipWithIndex
      b <- attrs.drop(i + 1)
      if association(sample, a, b) >= threshold
    } union(a, b)
    attrs.groupBy(find).values.toSeq.sortBy(c => attrs.indexOf(c.head))
  }
}
