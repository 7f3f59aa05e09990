package repro

import java.io.{PrintWriter, StringWriter}
import java.nio.file.{Files, Path, Paths}
import java.util.spi.ToolProvider
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Reads the compiled `repro.core` and `repro.ml` classes with `javap -c`
  * and rejects every call of `+=` on a primitive `ArrayBuilder`
  * (`ofInt`, `ofLong`, `ofDouble`). That `+=` is `Growable`'s generic one:
  * it boxes its element and reaches the builder's `addOne` through a
  * bridge, so each appended row allocates. `addOne` takes the primitive.
  * Where the builder's static type is erased (say, it comes out of a
  * `getOrElseUpdate`), the compiler calls `Growable.+=` on it instead, so
  * that call is rejected too when its argument was just boxed from an
  * `Int`, `Long` or `Double`.
  */
class UnboxedBuildersSpec extends AnyFunSuite {

  private val builderAppend = """ArrayBuilder\$of(Int|Long|Double)\.\$plus\$eq""".r.unanchored
  private val growableAppend = """Growable\.\$plus\$eq""".r.unanchored
  private val box = """BoxesRunTime\.boxTo(Integer|Long|Double)""".r.unanchored
  private val classHeader = """^\S.*\b(?:class|interface) ([\w.$]+).*\{$""".r

  /** The directory the program's classes were compiled to. */
  private def classes: Path = Paths.get(repro.core.Metrics.getClass.getProtectionDomain.getCodeSource.getLocation.toURI)

  /** `javap -c -p` of every class file under `pkg` of [[classes]]. */
  private def disassemble(pkg: String): String = {
    val files = Files.walk(classes.resolve(pkg)).iterator.asScala
      .filter(_.toString.endsWith(".class")).map(_.toString).toSeq.sorted
    assert(files.nonEmpty, s"no classes under $pkg")
    val javap = ToolProvider.findFirst("javap").orElseThrow()
    val (out, err) = (new StringWriter, new StringWriter)
    val code = javap.run(new PrintWriter(out), new PrintWriter(err), ("-c" +: "-p" +: files): _*)
    assert(code == 0, err.toString)
    out.toString
  }

  /** The methods of a `javap -c` listing whose code calls a boxing `+=`,
    * as `class: method`.
    */
  private def boxingAppends(listing: String): Seq[String] = {
    var cls, method, previous = ""
    listing.linesIterator.flatMap { line =>
      val boxing = line match {
        case classHeader(name) => cls = name; false
        case _ if line.startsWith("  ") && !line.startsWith("   ") => method = line.trim; false
        case builderAppend(_) => true
        case growableAppend() => box.findFirstIn(previous).nonEmpty
        case _ => false
      }
      previous = line
      if (boxing) Some(s"$cls: $method") else None
    }.toSeq.distinct
  }

  test("the core and ml classes append to primitive array builders without boxing") {
    val found = Seq("repro/core", "repro/ml").flatMap(pkg => boxingAppends(disassemble(pkg)))
    assert(found.isEmpty, s"boxing ArrayBuilder += in:\n${found.mkString("\n")}")
  }

  test("the check finds a boxing += in a listing") {
    val listing =
      """public final class repro.core.Example$ {
        |  private int[] rows(int);
        |    Code:
        |       0: new           #10                 // class scala/collection/mutable/ArrayBuilder$ofInt
        |      12: invokevirtual #20                 // Method scala/collection/mutable/ArrayBuilder$ofInt.$plus$eq:(Ljava/lang/Object;)Lscala/collection/mutable/Growable;
        |  private long[] ids(int);
        |    Code:
        |      12: invokevirtual #21                 // Method scala/collection/mutable/ArrayBuilder$ofLong.addOne:(J)Lscala/collection/mutable/ArrayBuilder$ofLong;
        |  public static final java.lang.Object $anonfun$index$3(scala.collection.mutable.HashMap, java.lang.Object, int);
        |    Code:
        |      33: invokevirtual #30                 // Method scala/collection/mutable/HashMap.getOrElseUpdate:(Ljava/lang/Object;Lscala/Function0;)Ljava/lang/Object;
        |      36: checkcast     #31                 // class scala/collection/mutable/Growable
        |      39: iload_2
        |      40: invokestatic  #32                 // Method scala/runtime/BoxesRunTime.boxToInteger:(I)Ljava/lang/Integer;
        |      43: invokeinterface #33,  2           // InterfaceMethod scala/collection/mutable/Growable.$plus$eq:(Ljava/lang/Object;)Lscala/collection/mutable/Growable;
        |  private void names(scala.collection.mutable.Growable, java.lang.String);
        |    Code:
        |       2: aload_2
        |       3: invokeinterface #33,  2           // InterfaceMethod scala/collection/mutable/Growable.$plus$eq:(Ljava/lang/Object;)Lscala/collection/mutable/Growable;
        |}""".stripMargin
    assert(boxingAppends(listing) == Seq(
      "repro.core.Example$: private int[] rows(int);",
      "repro.core.Example$: public static final java.lang.Object $anonfun$index$3(scala.collection.mutable.HashMap, java.lang.Object, int);"))
  }
}
