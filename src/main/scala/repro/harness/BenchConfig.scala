package repro.harness

/** Scaled-down experiment knobs (paper defaults in parentheses).
  *
  * Everything is overridable through system properties / environment so the
  * suite can be re-run at a different scale without recompiling, e.g.
  * `REPRO_TRIALS=100 sbt "bench/test"`.
  */
object BenchConfig {

  private def lookup(prop: String): Option[String] =
    sys.props.get(prop).orElse(sys.env.get(prop.toUpperCase.replace('.', '_')))

  private def intCfg(prop: String, default: Int): Int =
    lookup(prop).map(_.toInt).getOrElse(default)

  /** Sampling repetitions per cell (paper: 100). */
  val trials: Int = intCfg("repro.trials", 16)

  /** Test-graph size for wedge/triangle tables (paper: 3M–265M edges). */
  val benchEdges: Int = intCfg("repro.bench.edges", 150000)

  /** Test-graph size for 4-clique tables (enumeration is heavier). */
  val cliqueEdges: Int = intCfg("repro.bench.clique.edges", 40000)

  /** Reservoir budget as a fraction of |E| (paper: M = 200,000, i.e. ~1–7%
    * of |E| depending on the graph; Fig. 2b sweeps 1–5%; we use the upper
    * band so the |H|-signal of the weight heuristic survives the scale-down).
    */
  val sampleRatio: Double = lookup("repro.sample.ratio").map(_.toDouble).getOrElse(0.10)

  /** Reservoir ratio for the 4-clique tables. A 4-clique estimate multiplies
    * five inverse inclusion probabilities, so per-edge probabilities must be
    * higher for the estimator to concentrate at laptop scale — the paper's
    * absolute M = 200k provides this automatically. */
  val cliqueSampleRatio: Double =
    lookup("repro.sample.clique.ratio").map(_.toDouble).getOrElse(0.25)

  /** Number of MARE checkpoints along the stream. */
  val checkpoints: Int = intCfg("repro.checkpoints", 50)

  /** Training-graph size (paper trains on 10–20% of the test size). */
  val trainEdges: Int = intCfg("repro.train.edges", 30000)

  /** Training streams per policy (paper: 10). */
  val trainStreams: Int = intCfg("repro.train.streams", 3)

  /** DDPG gradient iterations (paper: 1,000). */
  val gradSteps: Int = intCfg("repro.train.gradsteps", 1000)

  /** Reservoir size for a graph of `nEdges` edges. */
  def mFor(nEdges: Int, ratio: Double = sampleRatio): Int =
    math.max(32, (nEdges * ratio).toInt)
}
