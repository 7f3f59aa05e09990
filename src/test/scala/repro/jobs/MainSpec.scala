package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The experiment entry point rejects a bad name before starting Spark. */
class MainSpec extends AnyFunSuite {

  test("an unknown experiment fails and names the known ones") {
    val e = intercept[IllegalArgumentException](Main.main(Array("table5")))
    assert(e.getMessage.contains("table5"))
    Main.experiments.keys.foreach(k => assert(e.getMessage.contains(k)))
  }
}
