package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Single-block SPJA queries and their why-provenance (paper Section 2.1).
  *
  * The paper relies on GProM/Perm to compute the provenance table
  * PT(Q, D): the subset of the cross product of the accessed relations
  * that contributes to each output. For single-block
  * select–from–where–group-by queries (the class the paper supports),
  * why-provenance is exactly the filtered join result, partitioned by the
  * group-by values — which is what we compute here as a substrate, entirely
  * in DataFrame operations.
  */
object Query {

  /** An aggregate of the single supported shape: one aggregate function over
    * one (possibly computed) column expression, e.g. `count(*)` or
    * `avg(points)`.
    */
  sealed trait Agg { def sql: String; def alias: String }
  final case class CountStar(alias: String) extends Agg { def sql = "count(*)" }
  final case class AvgOf(col: String, alias: String) extends Agg { def sql = s"avg($col)" }
  final case class SumOf(col: String, alias: String) extends Agg { def sql = s"sum($col)" }
  /** sum(col) / count(*) — used by the MIMIC death-rate queries. */
  final case class RateOf(col: String, alias: String) extends Agg { def sql = s"1.0*sum($col)/count(*)" }

  /** An equality filter `alias.attr = value` in the WHERE clause. Values are
    * compared as strings for categoricals and numerically for numerics.
    */
  final case class Filter(alias: String, attr: String, value: String)

  /** Single-block SPJA query spec.
    *
    * @param tables    (relationName, alias) for every FROM entry; aliases
    *                  must be unique and become the `prov_<alias>_` prefix
    * @param joins     equi-join conditions ((alias, attr), (alias, attr))
    * @param filters   conjunctive equality selections
    * @param groupBy   (alias, attr) list; these identify output tuples
    * @param agg       the single aggregate of the query
    */
  final case class QuerySpec(
      name: String,
      tables: Seq[(String, String)],
      joins: Seq[((String, String), (String, String))],
      filters: Seq[Filter],
      groupBy: Seq[(String, String)],
      agg: Agg,
  ) {
    def aliases: Seq[String] = tables.map(_._2)
    def relOfAlias(alias: String): String =
      tables.find(_._2 == alias).map(_._1)
        .getOrElse(throw new IllegalArgumentException(s"unknown alias $alias"))

    /** Column name of alias.attr inside the provenance table. */
    def provCol(alias: String, attr: String): String = s"prov_${alias}_$attr"

    /** Output column names of the group-by attributes (same prov_ naming). */
    def groupCols: Seq[String] = groupBy.map { case (al, a) => provCol(al, a) }

    /** Equivalent SQL over the raw relations — used by the DuckDB oracle. */
    def toSql: String = {
      val from = tables.map { case (r, al) => s"$r $al" }.mkString(", ")
      val conds =
        joins.map { case ((a1, c1), (a2, c2)) => s"$a1.$c1 = $a2.$c2" } ++
          filters.map(f => s"${f.alias}.${f.attr} = '${f.value.replace("'", "''")}'")
      val where = if (conds.isEmpty) "" else conds.mkString(" WHERE ", " AND ", "")
      val grp = groupBy.map { case (al, a) => s"$al.$a" }.mkString(", ")
      val grpSel = groupBy.map { case (al, a) => s"$al.$a AS ${provCol(al, a)}" }.mkString(", ")
      s"SELECT $grpSel, ${agg.sql} AS ${agg.alias} FROM $from$where GROUP BY $grp"
    }
  }

  /** The user question from Section 2.4: either compare two output tuples
    * (two-point) or contrast one against the rest (single-point). Tuples
    * are identified by their group-by values, keyed by prov_ column name.
    */
  sealed trait UserQuestion {
    /** t1, and t2 of a two-point question, by name. */
    def tuples: Seq[(String, Map[String, String])] = this match {
      case TwoPoint(t1, t2) => Seq("t1" -> t1, "t2" -> t2)
      case SinglePoint(t1)  => Seq("t1" -> t1)
    }
  }
  final case class TwoPoint(t1: Map[String, String], t2: Map[String, String]) extends UserQuestion
  final case class SinglePoint(t1: Map[String, String]) extends UserQuestion

  /** Builds the provenance table PT(Q, D) restricted to the question:
    * filtered join of the accessed relations with every column renamed to
    * `prov_<alias>_<attr>`, a synthetic `pt_id`, and a `grp` column that is
    * "t1" for rows in PT(Q, D, t1), "t2" for PT(Q, D, t2) (for a
    * single-point question every non-t1 row is "t2", mirroring the paper's
    * reduction), and "other" otherwise. A question with an empty tuple, a
    * key that is not one of `q.groupCols`, or t1 = t2 is rejected with an
    * `IllegalArgumentException`.
    */
  def provenanceTable(db: Schema.Database, q: QuerySpec, uq: UserQuestion): DataFrame = {
    check(q, uq)
    val joined = joinedRelations(db, q)
    val grpCol = uq match {
      case TwoPoint(t1, t2) =>
        when(matches(t1), lit("t1")).when(matches(t2), lit("t2")).otherwise(lit("other"))
      case SinglePoint(t1) =>
        when(matches(t1), lit("t1")).otherwise(lit("t2"))
    }
    joined
      .withColumn("grp", grpCol)
      .withColumn("pt_id", monotonically_increasing_id())
  }

  /** PT rows relevant to the question only (grp ∈ {t1, t2}), cached-ready. */
  def questionProvenance(db: Schema.Database, q: QuerySpec, uq: UserQuestion): DataFrame =
    provenanceTable(db, q, uq).filter(col("grp").isin("t1", "t2"))

  /** Rejects what would return an empty ranking: see [[provenanceTable]]. */
  private[core] def check(q: QuerySpec, uq: UserQuestion): Unit = {
    for ((name, t) <- uq.tuples) {
      require(t.nonEmpty, s"user question: $name is empty")
      val bad = t.keys.filterNot(q.groupCols.contains)
      require(bad.isEmpty,
        s"user question: ${bad.mkString(", ")} in $name: not a group-by column of ${q.name} (${q.groupCols.mkString(", ")})")
    }
    require(uq.tuples.map(_._2).distinct.size == uq.tuples.size,
      s"user question: t1 and t2 are the same tuple ${uq.tuples.head._2}")
  }

  private def matches(tv: Map[String, String]): Column =
    tv.map { case (c, v) => col(c) === lit(v) }.reduce(_ && _)

  /** The filtered, renamed join of the query's relations (PT without ids). */
  def joinedRelations(db: Schema.Database, q: QuerySpec): DataFrame = {
    val renamed: Seq[DataFrame] = q.tables.map { case (rel, al) =>
      val df = db(rel)
      df.columns.foldLeft(df)((d, c) => d.withColumnRenamed(c, q.provCol(al, c)))
    }
    val cross = renamed.reduce(_ crossJoin _)
    val conds: Seq[Column] =
      q.joins.map { case ((a1, c1), (a2, c2)) => col(q.provCol(a1, c1)) === col(q.provCol(a2, c2)) } ++
        q.filters.map(f => col(q.provCol(f.alias, f.attr)) === lit(f.value))
    conds.foldLeft(cross)((d, c) => d.filter(c))
  }

  /** Q(D) — the query result, with group columns named like PT columns so
    * user-question tuples can be located by the same keys.
    */
  def run(db: Schema.Database, q: QuerySpec): DataFrame = {
    val joined = joinedRelations(db, q)
    val aggCol = q.agg match {
      case CountStar(a)  => count(lit(1)).as(a)
      case AvgOf(c, a)   => avg(col(resolveCol(q, c))).as(a)
      case SumOf(c, a)   => sum(col(resolveCol(q, c))).as(a)
      case RateOf(c, a)  => (sum(col(resolveCol(q, c))) / count(lit(1))).as(a)
    }
    joined.groupBy(q.groupCols.map(col): _*).agg(aggCol)
  }

  /** Resolves `alias.attr` (or bare attr of a single-table query) to the
    * prov_ column name.
    */
  private def resolveCol(q: QuerySpec, c: String): String =
    c.split('.') match {
      case Array(al, attr) => q.provCol(al, attr)
      case Array(attr)     => q.provCol(q.aliases.head, attr)
      case _               => throw new IllegalArgumentException(s"bad column ref $c")
    }
}
