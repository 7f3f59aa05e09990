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
      case (false, false) => cramersV(sample.codes(a), sample.codes(b))
      case (true, false)  => correlationRatio(sample.codes(b), sample.strings(b), sample.doubles(a))
      case (false, true)  => correlationRatio(sample.codes(a), sample.strings(a), sample.doubles(b))
    }

  /** Pearson's r over the rows where neither `xs` nor `ys` is NaN; 0 for
    * fewer than 3 such rows or a constant column. Every sum runs over the
    * rows in order, from 0.0.
    */
  def pearson(xs: Array[Double], ys: Array[Double]): Double = {
    var n = 0
    var sx, sy = 0.0
    var i = 0
    while (i < xs.length) {
      if (!xs(i).isNaN && !ys(i).isNaN) { sx += xs(i); sy += ys(i); n += 1 }
      i += 1
    }
    if (n < 3) return 0.0
    val mx = sx / n; val my = sy / n
    var sxy = 0.0; var sxx = 0.0; var syy = 0.0
    i = 0
    while (i < xs.length) {
      val x = xs(i); val y = ys(i)
      if (!x.isNaN && !y.isNaN) { sxy += (x - mx) * (y - my); sxx += (x - mx) * (x - mx); syy += (y - my) * (y - my) }
      i += 1
    }
    if (sxx <= 0 || syy <= 0) 0.0 else sxy / math.sqrt(sxx * syy)
  }

  /** Cramér's V from the contingency table of two categorical columns,
    * given as dictionary codes (-1 for null).
    */
  def cramersV(xs: Array[Int], ys: Array[Int]): Double = {
    val rows = Array.range(0, xs.length).filter(i => xs(i) >= 0 && ys(i) >= 0)
    val n = rows.length
    if (n < 3) return 0.0
    val (x, nx) = categories(rows.map(xs))
    val (y, ny) = categories(rows.map(ys))
    if (nx < 2 || ny < 2) return 0.0
    val (obs, xTot, yTot) = (new Array[Int](nx * ny), new Array[Int](nx), new Array[Int](ny))
    x.indices.foreach { r => obs(x(r) * ny + y(r)) += 1; xTot(x(r)) += 1; yTot(y(r)) += 1 }
    // Every category occurs, so each expected count e is positive.
    var chi2 = 0.0
    for (i <- 0 until nx; j <- 0 until ny) {
      val e = xTot(i).toDouble * yTot(j) / n
      val o = obs(i * ny + j).toDouble
      chi2 += (o - e) * (o - e) / e
    }
    math.min(1.0, math.sqrt(chi2 / (n * (math.min(nx, ny) - 1))))
  }

  /** Correlation ratio η: how much of the numeric variance the categories
    * explain — the standard mixed-pair association. `cats` are dictionary
    * codes (-1 for null) into `strings`, `nums` NaN for null.
    */
  def correlationRatio(cats: Array[Int], strings: Array[String], nums: Array[Double]): Double = {
    val rows = Array.range(0, cats.length).filter(i => cats(i) >= 0 && !nums(i).isNaN)
    val n = rows.length
    if (n < 3) return 0.0
    val vs = rows.map(nums)
    val mean = vs.foldLeft(0.0)(_ + _) / n
    val ssTot = vs.foldLeft(0.0)((s, v) => s + (v - mean) * (v - mean))
    if (ssTot <= 0) return 0.0
    val (count, sum) = (new Array[Int](strings.length), new Array[Double](strings.length))
    rows.indices.foreach { r => count(cats(rows(r))) += 1; sum(cats(rows(r))) += vs(r) }
    // Groups are summed in the order a HashMap keyed by their strings
    // visits them; the last bits depend on it, and FrontEndSpec pins them.
    val groups = scala.collection.immutable.HashMap.from(strings.indices.filter(count(_) > 0).map(c => strings(c) -> c))
    val ssBetween = groups.valuesIterator.foldLeft(0.0) { (s, c) =>
      val m = sum(c) / count(c)
      s + count(c) * (m - mean) * (m - mean)
    }
    math.sqrt(math.min(1.0, ssBetween / ssTot))
  }

  /** The non-negative `codes` numbered by first appearance, and how many
    * distinct codes there are.
    */
  private def categories(codes: Array[Int]): (Array[Int], Int) = {
    val number = Array.fill(codes.foldLeft(0)(math.max) + 1)(-1)
    var k = 0
    (codes.map { c => if (number(c) < 0) { number(c) = k; k += 1 }; number(c) }, k)
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
