package perfbench

import java.io.File

/** Entry point: `perfbench.Main --workload <name> --seed <n> --seconds <s>
  * --trace <0|1> --work-dir <dir>`.
  *
  * Prints one JSON object as the last line of standard output:
  * `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
  * metrics when `--trace 0` and the per-layer metrics when `--trace 1`
  * (`run.py` adds the JFR layer counts to the latter).
  */
object Main {

  def main(args: Array[String]): Unit = {
    // Spark leaves non-daemon threads behind; exit explicitly either way.
    val code =
      try { run(args); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.out.flush()
    System.exit(code)
  }

  private def run(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workload.byName(opt("workload"))
    val seconds = opt("seconds").toDouble
    require(seconds > 0, s"--seconds must be positive, got $seconds")
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }

    // The harness reads its knobs once, from system properties.
    System.setProperty("repro.trials", "2")
    System.setProperty("repro.train.edges", wl.trainEdges.toString)
    System.setProperty("repro.train.streams", Workload.trainStreams.toString)

    val bench = new Bench(wl, new Seeds(opt("seed").toLong), seconds, trace, new File(opt("work-dir")))
    bench.run()

    val c = bench.checks
    Console.err.println(s"[perfbench] checks: ${c.evaluated} evaluated, ${c.failed} failed")
    c.firstFailures.foreach(f => Console.err.println(s"[perfbench] FAILED: $f"))
    val shown = if (trace) bench.perLayer else bench.endToEnd
    val hidden = if (trace) bench.endToEnd else bench.perLayer
    hidden.foreach { case (k, (v, u)) => Console.err.println(s"[perfbench] $k = $v $u") }
    val metrics = shown.map { case (k, (v, u)) =>
      s""""$k": {"value": ${jsonNumber(v)}, "unit": "$u"}"""
    }.mkString("{", ", ", "}")
    println(s"""{"correct": ${c.failed == 0}, "attempted": ${bench.attempted}, "failed": ${bench.failed}, "metrics": $metrics}""")
  }

  private def jsonNumber(x: Double): String =
    if (x.isNaN || x.isInfinite) "null" else x.toString
}
