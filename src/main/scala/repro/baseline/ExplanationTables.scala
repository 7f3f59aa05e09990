package repro.baseline

import repro.core.{Metrics, Pattern}
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

  private val NBins = 4    // quartile bins of the numeric attributes
  private val MaxPreds = 6 // predicates per LCA candidate

  /** Bucketizes numeric columns of the sample into categorical quartile
    * labels like "bin2" so ET's categorical machinery can use them: a new
    * table of the sample's rows, every column a string.
    */
  def bucketize(sample: Metrics.Table): Metrics.Table = {
    val n = sample.rows
    val cols: Seq[(String, Array[Any])] = sample.names.map { a =>
      a -> (if (!sample.isNumeric(a)) sample.stringValues(a).toArray[Any]
      else {
        val vs = sample.doubles(a)
        val sortedVals = vs.filterNot(_.isNaN).sorted
        if (sortedVals.isEmpty) new Array[Any](n)
        else {
          val qs = (1 until NBins).map(k => sortedVals((sortedVals.length - 1) * k / NBins))
          vs.map[Any](v => if (v.isNaN) null else s"bin${qs.count(_ < v)}")
        }
      })
    }
    Metrics.Table(Array.tabulate(n)(_.toLong), sample.t1Rows, cols, _ => false)
  }

  /** Greedy ET summary of size `k` from an LCA candidate pool, scored by
    * the reduction in outcome entropy of the sample rows the pattern
    * covers (marginal gain over already-picked patterns, re-evaluated each
    * round — the quadratic loop).
    */
  def summarize(sample0: Metrics.Table, k: Int): Seq[EtPattern] = {
    val sample = bucketize(sample0)
    val candidates = repro.core.Lca.candidates(sample, sample.names, MaxPreds)
    val n = sample.rows
    val pool = scala.collection.mutable.ArrayBuffer(candidates.take(4000): _*)
    // Each candidate as (an attribute's codes, the code it must equal) pairs.
    val compiled = pool.map { p =>
      p -> p.preds.map(pr => (sample.codes(pr.attr), sample.strings(pr.attr).indexOf(pr.value.render)))
    }.toMap
    def matches(p: Seq[(Array[Int], Int)], i: Int): Boolean =
      p.forall { case (column, code) => column(i) == code }

    def entropy(c1: Int, c0: Int): Double = {
      val t = c1 + c0
      if (t == 0 || c1 == 0 || c0 == 0) 0.0
      else {
        val p1 = c1.toDouble / t; val p0 = c0.toDouble / t
        -p1 * math.log(p1) - p0 * math.log(p0)
      }
    }

    val covered = Array.fill(n)(false)
    val labels = Array.tabulate(n)(i => if (i < sample.t1Rows) 0 else 1)
    val out = scala.collection.mutable.ArrayBuffer.empty[EtPattern]
    val total1 = labels.count(_ == 1)
    val baseH = entropy(total1, n - total1)
    while (out.size < k && pool.nonEmpty) {
      // Re-score every remaining candidate against the uncovered rows.
      var best: Option[(Pattern.Pattern, Double, Long, Long)] = None
      pool.foreach { p =>
        val pc = compiled(p)
        var c0 = 0; var c1 = 0
        var i = 0
        while (i < n) {
          if (!covered(i) && matches(pc, i)) {
            if (labels(i) == 0) c0 += 1 else c1 += 1
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
          (0 until n).foreach(i => if (matches(compiled(p), i)) covered(i) = true)
        case None => pool.clear()
      }
    }
    out.toSeq
  }

  /** Runs ET over an APT with a given sample size, returning the summary
    * and the wall-clock seconds of summarizing it — the quantity Figure 11
    * compares.
    */
  def run(apt: Metrics.Table, attrCols: Seq[String], sampleSize: Int, k: Int = 20): (Seq[EtPattern], Double) = {
    val sample = LocalSample.draw(apt, attrCols, 1.0, sampleSize, seed = 7)
    val t0 = System.nanoTime()
    val out = summarize(sample, k)
    (out, (System.nanoTime() - t0) / 1e9)
  }
}
