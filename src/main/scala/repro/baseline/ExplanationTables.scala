package repro.baseline

import org.apache.spark.sql.DataFrame
import repro.core.Pattern
import repro.ml.LocalSample

/** Explanation Tables baseline (Gebaly et al. [19], compared against in
  * paper Sections 5.5 and Appendix A.1).
  *
  * ET summarizes a relation with a binary outcome attribute by greedily
  * selecting the patterns that maximize the information gain of the
  * summary w.r.t. the outcome. As in the original, candidate patterns come
  * from LCA meets of sample-row pairs; ET handles only categorical
  * attributes, so numeric columns are pre-bucketized into quartile bins
  * (the preprocessing step the paper describes in A.1). The greedy step
  * rescoring every candidate each round is what makes ET quadratic in the
  * sample size — the behaviour Figure 11 measures.
  */
object ExplanationTables {

  final case class EtPattern(pattern: Pattern.Pattern, gain: Double, cov1: Long, cov2: Long)

  /** Bucketizes numeric columns of the sample into categorical quartile
    * labels like "[q1,q2)" so ET's categorical machinery can use them.
    */
  def bucketize(sample: LocalSample, nBins: Int = 4): LocalSample = {
    val attrs = sample.attrs.map(a => a.copy(numeric = false))
    val cols = sample.attrs.indices.map { i =>
      if (!sample.attrs(i).numeric) sample.rows.map(_(i))
      else {
        val vs = sample.numericValues(i)
        val sortedVals = vs.filterNot(_.isNaN).sorted
        if (sortedVals.isEmpty) vs.map(_ => null)
        else {
          val qs = (1 until nBins).map(k => sortedVals((sortedVals.size - 1) * k / nBins))
          vs.map { v =>
            if (v.isNaN) null
            else {
              val b = qs.count(_ < v)
              s"bin$b": Any
            }
          }
        }
      }
    }
    val rows = sample.rows.indices.map(r => sample.attrs.indices.map(i => cols(i)(r)).toArray).toVector
    LocalSample(attrs, rows, sample.labels)
  }

  /** Greedy ET summary of size `k` from an LCA candidate pool, scored by
    * the reduction in outcome entropy of the sample rows the pattern
    * covers (marginal gain over already-picked patterns, re-evaluated each
    * round — the quadratic loop).
    */
  def summarize(sample0: LocalSample, k: Int, maxPreds: Int = 6): Seq[EtPattern] = {
    val sample = bucketize(sample0)
    val cats = sample.attrs.map(_.name)
    val candidates = repro.core.Lca.candidates(sample, cats, maxPreds)
    val n = sample.size
    if (n == 0 || candidates.isEmpty) return Nil

    def matches(p: Pattern.Pattern, row: Array[Any]): Boolean =
      p.preds.forall { pr =>
        val v = row(sample.attrIndex(pr.attr))
        v != null && v.toString == pr.value.render
      }

    def entropy(c1: Int, c0: Int): Double = {
      val t = c1 + c0
      if (t == 0 || c1 == 0 || c0 == 0) 0.0
      else {
        val p1 = c1.toDouble / t; val p0 = c0.toDouble / t
        -p1 * math.log(p1) - p0 * math.log(p0)
      }
    }

    val covered = Array.fill(n)(false)
    val out = scala.collection.mutable.ArrayBuffer.empty[EtPattern]
    val pool = scala.collection.mutable.ArrayBuffer(candidates.take(4000): _*)
    val total1 = sample.labels.count(_ == 1)
    val baseH = entropy(total1, n - total1)
    while (out.size < k && pool.nonEmpty) {
      // Re-score every remaining candidate against the uncovered rows.
      var best: Option[(Pattern.Pattern, Double, Long, Long)] = None
      pool.foreach { p =>
        var c0 = 0; var c1 = 0
        var i = 0
        while (i < n) {
          if (!covered(i) && matches(p, sample.rows(i))) {
            if (sample.labels(i) == 0) c0 += 1 else c1 += 1
          }
          i += 1
        }
        val cov = c0 + c1
        if (cov > 0) {
          val gain = (cov.toDouble / n) * (baseH - entropy(c1, c0))
          if (best.forall(_._2 < gain)) best = Some((p, gain, c0.toLong, c1.toLong))
        }
      }
      best match {
        case Some((p, g, c0, c1)) =>
          out += EtPattern(p, g, c0, c1)
          pool -= p
          sample.rows.indices.foreach(i => if (matches(p, sample.rows(i))) covered(i) = true)
        case None => pool.clear()
      }
    }
    out.toSeq
  }

  /** Runs ET over an APT with a given sample size, returning the summary
    * and the wall-clock seconds — the quantity Figure 11 compares.
    */
  def run(apt: DataFrame, attrCols: Seq[String], sampleSize: Int, k: Int = 20): (Seq[EtPattern], Double) = {
    val sample = LocalSample.collect(apt, attrCols, 1.0, sampleSize)
    val t0 = System.nanoTime()
    val out = summarize(sample, k)
    (out, (System.nanoTime() - t0) / 1e9)
  }
}
