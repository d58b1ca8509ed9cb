package repro.baselines

import repro.core.{Adjacency, Edge, EdgeEvent, Pattern, Rng, SubgraphCounter}

/** ThinkD (ACC variant; Shin et al., ECML-PKDD'18 / TKDD'20) generalised to
  * the paper's three patterns.
  *
  * Uniform random-pairing reservoir like Triest, but the estimate is updated
  * *before* the sample ("think before you discard"): every event's closed
  * instances contribute immediately, scaled by the inverse joint inclusion
  * probability of the |H|−1 already-sampled edges — which yields a strictly
  * smaller variance than Triest.
  */
final class ThinkD(val pattern: Pattern, val M: Int, seed: Long)
    extends SubgraphCounter with Serializable {
  require(M >= pattern.size, s"M=$M must be at least |H|=${pattern.size}")

  private val rng = new Rng(seed)
  private val rp  = new RPSampler(M, rng)
  private val adj = new Adjacency // the sampled edges
  private var c = 0.0
  private var nEdges = 0L

  override val name = "ThinkD"
  override def sampleSize: Int = rp.size
  override def estimate: Double = c

  override def process(ev: EdgeEvent): Unit = {
    // population of the *other* edges: live edges excluding the event's edge
    val population = if (ev.insert) nEdges else nEdges - 1
    val p = RPSampler.jointProb(pattern.size - 1, M, population, rp.uncompensated)
    val n = pattern.countInstances(adj, ev.u, ev.v)
    if (p > 0) {
      if (ev.insert) c += n / p else c -= n / p
    }
    if (ev.insert) {
      nEdges += 1
      val out = rp.insert(ev.u, ev.v, nEdges)
      if (out.hasEviction) adj.remove(Edge.u(out.evicted), Edge.v(out.evicted))
      if (out.added) adj.add(ev.u, ev.v)
    } else {
      if (rp.delete(ev.u, ev.v)) adj.remove(ev.u, ev.v)
      nEdges -= 1
    }
  }
}
