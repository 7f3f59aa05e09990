package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Summarization patterns (paper Definition 5): conjunctions of equality
  * predicates on categorical attributes and =/≤/≥ predicates on numeric
  * attributes. Attributes set to `*` are simply absent from `preds`.
  */
object Pattern {

  sealed trait Op { def sym: String }
  case object OpEq extends Op { val sym = "=" }
  case object OpLe extends Op { val sym = "<=" }
  case object OpGe extends Op { val sym = ">=" }

  sealed trait Value { def render: String }
  final case class CatV(v: String) extends Value { def render: String = v }
  final case class NumV(v: Double) extends Value {
    def render: String = if (v == v.floor && v.abs < 1e15) v.toLong.toString else f"$v%.4f"
  }

  /** One predicate `attr op value`. */
  final case class Pred(attr: String, op: Op, value: Value) {
    def toColumn: Column = (op, value) match {
      case (OpEq, CatV(s)) => col(attr) === lit(s)
      case (OpEq, NumV(d)) => col(attr) === lit(d)
      case (OpLe, NumV(d)) => col(attr) <= lit(d)
      case (OpGe, NumV(d)) => col(attr) >= lit(d)
      case (o, v)          => throw new IllegalStateException(s"bad pred $attr ${o.sym} $v")
    }
    def render: String = s"$attr${op.sym}${value.render}"
  }

  /** A pattern Φ: a set of predicates on distinct attributes, kept sorted by
    * attribute name so structurally equal patterns compare equal.
    */
  final case class Pattern(preds: Vector[Pred]) {
    require(preds.map(_.attr).distinct.size == preds.size, "one predicate per attribute")

    def isEmpty: Boolean = preds.isEmpty
    def attrs: Set[String] = preds.map(_.attr).toSet
    def size: Int = preds.size
    def numericPredCount: Int = preds.count(_.value.isInstanceOf[NumV])

    /** Spark filter expression for MATCH(Φ, R); empty pattern matches all. */
    def toColumn: Column =
      if (preds.isEmpty) lit(true) else preds.map(_.toColumn).reduce(_ && _)

    /** Refinement (Section 3): adds one predicate on a fresh attribute. */
    def refined(p: Pred): Pattern = {
      require(!attrs(p.attr), s"attribute ${p.attr} already bound")
      Pattern((preds :+ p).sortBy(_.attr))
    }

    def render: String = if (preds.isEmpty) "(*)" else preds.map(_.render).mkString(" ∧ ")
  }

  object Pattern {
    val empty: Pattern = Pattern(Vector.empty)
    def of(preds: Pred*): Pattern = Pattern(preds.toVector.sortBy(_.attr))
  }

  /** Diversity score D(Φ, Φ') from Section 3.5: per attribute of Φ, +1 if
    * absent from Φ', −0.3 if present with a different constant, −2 if
    * present with the same constant; averaged over |Φ|.
    */
  def diversity(p: Pattern, other: Pattern): Double = diversity(p, byAttr(other))

  /** [[diversity]] from Φ' as its predicates by attribute. */
  private[core] def diversity(p: Pattern, other: Map[String, Pred]): Double = {
    if (p.preds.isEmpty) return 0.0
    val s = p.preds.map { pr =>
      other.get(pr.attr) match {
        case None                                   => 1.0
        case Some(o) if o.value == pr.value         => -2.0
        case Some(_)                                => -0.3
      }
    }.sum
    s / p.preds.size
  }

  /** The predicates of `p` by attribute. */
  private[core] def byAttr(p: Pattern): Map[String, Pred] = p.preds.map(pr => pr.attr -> pr).toMap

  /** wscore used for diverse top-k selection: F-score plus the distance to
    * the closest already-selected pattern.
    */
  def wscore(fscore: Double, p: Pattern, selected: Seq[Pattern]): Double =
    if (selected.isEmpty) fscore
    else fscore + selected.map(diversity(p, _)).min
}
