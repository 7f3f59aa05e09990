package repro.core

import repro.ml.{Correlation, LocalSample, RandomForest}

/** FILTERATTRS from Algorithm 1: clustering correlated attributes and
  * filtering by random-forest relevance (paper Section 3.1).
  */
object FeatureSelect {

  /** Result of attribute preprocessing on an APT sample. */
  final case class Selected(categorical: Vector[String], numeric: Vector[String])

  /** Runs relevance ranking + correlation clustering over the sample.
    *
    * 1. A random forest predicts the t1/t2 label; attributes are ranked by
    *    feature importance and the top `selAttrCount` of each kind are
    *    kept (attributes with zero importance never make it — they are the
    *    "mostly constant" columns the paper warns about).
    * 2. Surviving attributes are clustered by mutual association; the most
    *    relevant member represents each cluster, eliminating
    *    birth-date-vs-age style redundancy.
    *
    * With `featureSelection = false` every attribute is kept (the Naive
    * configuration of Section 5.1).
    */
  def filterAttrs(sample: LocalSample, params: Params): Selected = {
    val all = sample.attrs
    if (!params.featureSelection) {
      return Selected(all.filterNot(_.numeric).map(_.name), all.filter(_.numeric).map(_.name))
    }
    val importance = RandomForest.featureImportance(sample, params.seed)

    def topOfKind(numeric: Boolean): Vector[String] =
      all.filter(_.numeric == numeric)
        .map(a => a.name -> importance.getOrElse(a.name, 0.0))
        .filter(_._2 > 0.0)
        .sortBy(-_._2)
        .take(params.selAttrCount)
        .map(_._1)

    val (categorical, numeric) = (topOfKind(numeric = false), topOfKind(numeric = true))
    val clusters = Correlation.cluster(sample, (categorical ++ numeric).map(sample.attrIndex), params.corrThreshold)
    val reps = clusters.map { c =>
      c.maxBy(i => importance.getOrElse(sample.attrs(i).name, 0.0))
    }.map(i => sample.attrs(i).name).toSet

    Selected(categorical.filter(reps), numeric.filter(reps))
  }
}
