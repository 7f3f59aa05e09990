package repro.bench

import repro.SparkSpec
import repro.jobs.Main

/** Runs every experiment of `repro.jobs.Main` at SF 0.1, one test each,
  * prints its lines and checks them. The measured output is recorded
  * against the paper's in EXPERIMENTS.md.
  */
class ExperimentsBench extends SparkSpec {

  /** The seconds of the first line that contains `tag`, printed as `…: <s> s`. */
  private def secondsOf(lines: Seq[String], tag: String): Double =
    lines.find(_.contains(tag)).get.split(":")(1).trim.split(" ").head.toDouble

  /** The whitespace-separated fields of the first line that starts with
    * `tag`, leading blanks aside.
    */
  private def fields(lines: Seq[String], tag: String): Array[String] =
    lines.map(_.trim).find(_.startsWith(tag)).get.split("\\s+")

  /** Experiment name → the checks on the lines it prints. */
  private val checks: Map[String, Seq[String] => Unit] = Map(
    // One block per query, each with up to 3 ranked explanations.
    "table4" -> { lines =>
      assert(lines.count(_.startsWith("Q_nba")) == 5)
      assert(lines.count(_.trim.startsWith("1.")) == 5)
    },
    "table6" -> { lines =>
      assert(lines.count(_.startsWith("Q_mimic")) == 5)
      assert(lines.count(_.trim.startsWith("1.")) == 5)
    },
    "figure7-nba" -> { lines =>
      assert(lines.exists(_.contains("F-score Calc.")))
      assert(lines.exists(_.contains("total")))
    },
    "figure7-mimic" -> { lines =>
      assert(lines.exists(_.contains("Feature Selection")))
    },
    // Augmentation multiplies rows: Ω2 > Ω1 and Ω4 ≥ Ω3 as in the paper.
    "figure10a" -> { lines =>
      def rowsOf(tag: String): Long = fields(lines, tag).dropRight(1).last.toLong
      assert(rowsOf("Ω2") > rowsOf("Ω1"))
      assert(rowsOf("Ω4") >= rowsOf("Ω3"))
    },
    // The quadratic candidate-pair loop must dominate at 512 rows.
    "figure11" -> { lines =>
      assert(secondsOf(lines, "sample= 512") > secondsOf(lines, "sample=  16"))
    },
    "figure12" -> { lines =>
      assert(lines.count(_.contains("join graphs")) == 9)
    },
    "figure13" -> { lines =>
      assert(lines.exists(_.contains("UQ_cape1")))
      assert(lines.count(_.trim.startsWith("1.")) == 2)
    },
    // All ten study explanations are rated, and (S2 of the paper) a
    // high-F explanation is rated above the control.
    "table8-9" -> { lines =>
      assert(lines.count(_.trim.startsWith("Expl")) == 10)
      assert(fields(lines, "Expl7 ")(1).toDouble > fields(lines, "Expl10 ")(1).toDouble)
    },
    "table10" -> { lines =>
      assert(lines.count(_.trim.matches("^\\d+\\..*")) >= 5)
    },
  )

  Main.experiments.foreach { case (name, run) =>
    test(name) {
      val lines = run(spark, 0.1)
      lines.foreach(println)
      checks.getOrElse(name, fail(s"experiment $name has no check"))(lines)
    }
  }
}
