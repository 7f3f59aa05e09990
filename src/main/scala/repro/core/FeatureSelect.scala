package repro.core

import repro.ml.{Correlation, RandomForest}

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
  def filterAttrs(sample: Metrics.Table, params: Params): Selected = {
    val (numeric, categorical) = sample.names.toVector.partition(sample.isNumeric)
    if (!params.featureSelection) return Selected(categorical, numeric)
    val importance = RandomForest.featureImportance(sample, params.seed)

    def top(attrs: Vector[String]): Vector[String] =
      attrs.map(a => a -> importance.getOrElse(a, 0.0))
        .filter(_._2 > 0.0)
        .sortBy(-_._2)
        .take(params.selAttrCount)
        .map(_._1)

    val (topCategorical, topNumeric) = (top(categorical), top(numeric))
    val reps = Correlation.cluster(sample, topCategorical ++ topNumeric, params.corrThreshold)
      .map(_.maxBy(importance.getOrElse(_, 0.0))).toSet

    Selected(topCategorical.filter(reps), topNumeric.filter(reps))
  }
}
