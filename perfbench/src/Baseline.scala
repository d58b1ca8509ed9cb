package perfbench

import repro.core.{EdgeEvent, Pattern, Triangle, Wedge}
import repro.exact.ExactDynamicCounter
import repro.graphgen.{Datasets, Scenario}
import repro.harness.{Algorithms, BenchConfig, PolicyStore, TrialRunner}

/** The re-anchor baseline table of ROADMAP.md: single-thread ns/event of
  * the exact counter and every fully dynamic sampler, best of 3 passes
  * after one warm-up pass, on the bench tables' 150k-edge streams with
  * M = 10% (the harness defaults). Prints the table in Markdown, then one
  * JSON line. Run with `python3 perfbench/run.py --baseline`.
  */
object Baseline {

  private val rows: Seq[(String, String, Pattern, Scenario)] = Seq(
    ("cit △ light", "cit", Triangle, Scenario.Light()),
    ("cit ∧ light", "cit", Wedge, Scenario.Light()),
    ("soc △ massive", "soc", Triangle, Scenario.Massive()),
  )

  /** The stream the bench tables use for a dataset: the first of five
    * scenario seeds whose final count keeps 10% of its peak. */
  private def tableStream(edges: Array[Long], scenario: Scenario, pattern: Pattern,
                          category: String): (Array[EdgeEvent], TrialRunner.TruthSeries) = {
    val base = 1000L + category.hashCode
    val tries = (0 until 5).iterator.map { a =>
      val s = scenario.build(edges, base + a)
      (s, TrialRunner.truth(s, pattern, BenchConfig.checkpoints))
    }.toSeq
    tries.find { case (_, t) => t.finalTruth >= 0.1 * t.values.max }.getOrElse(tries.head)
  }

  def main(args: Array[String]): Unit = {
    val algs = "exact" +: Algorithms.fullyDynamic
    println(s"| workload (events) | ${algs.mkString(" | ")} |")
    println(s"|---${"|---" * algs.length}|")
    val json = rows.map { case (label, category, pattern, scenario) =>
      val edges = Datasets.test(category, BenchConfig.benchEdges)
      val m = BenchConfig.mFor(edges.length)
      val (stream, truth) = tableStream(edges, scenario, pattern, category)
      val policy = PolicyStore.trained(category, scenario, pattern).policy
      val ns = algs.map { alg =>
        def pass(seed: Long): Double = alg match {
          case "exact" =>
            val exact = new ExactDynamicCounter(pattern)
            Bench.timed(stream.foreach(exact.process))._2
          case a => TrialRunner.run(stream, Algorithms.make(a, pattern, m, seed, policy), truth).seconds
        }
        pass(1)
        alg -> (2 to 4).map(i => pass(i.toLong)).min * 1e9 / stream.length
      }
      println(s"| $label (${stream.length / 1000}k) | ${ns.map(x => f"${x._2}%.0f").mkString(" | ")} |")
      s""""$label": {${ns.map { case (a, v) => f""""$a": $v%.1f""" }.mkString(", ")}}"""
    }
    println(json.mkString("""{"ns_per_event": {""", ", ", "}}"))
  }
}
