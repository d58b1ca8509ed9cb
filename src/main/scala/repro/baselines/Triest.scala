package repro.baselines

import repro.core.{Adjacency, Edge, EdgeEvent, Pattern, Rng, SubgraphCounter}

/** Triest-FD (De Stefani et al., TKDD'17) generalised to the paper's three
  * patterns.
  *
  * A uniform random-pairing reservoir; the running counter `τ` tracks the
  * number of pattern instances whose edges are *all* in the sample and is
  * only updated when an edge enters or leaves the sample (the defining
  * difference from ThinkD's "think before you discard"). The estimate
  * rescales `τ` by the inverse joint inclusion probability of |H| edges.
  */
final class Triest(val pattern: Pattern, val M: Int, seed: Long)
    extends SubgraphCounter with Serializable {
  require(M >= pattern.size, s"M=$M must be at least |H|=${pattern.size}")

  private val rng = new Rng(seed)
  private val rp  = new RPSampler(M, rng)
  private val adj = new Adjacency // the sampled edges
  private var tau = 0L
  private var nEdges = 0L

  override val name = "Triest"
  override def sampleSize: Int = rp.size

  override def estimate: Double = {
    val p = RPSampler.jointProb(pattern.size, M, nEdges, rp.uncompensated)
    if (p <= 0) 0.0 else tau / p
  }

  override def process(ev: EdgeEvent): Unit =
    if (ev.insert) {
      nEdges += 1
      val out = rp.insert(ev.u, ev.v, nEdges)
      if (out.hasEviction) {
        // victim still in adj here — subtract instances it participates in
        val (a, b) = (Edge.u(out.evicted), Edge.v(out.evicted))
        tau -= pattern.countInstances(adj, a, b)
        adj.remove(a, b)
      }
      // countInstances leaves the new edge itself out, so this counts
      // exactly the instances it closes within the sample
      if (out.added) { adj.add(ev.u, ev.v); tau += pattern.countInstances(adj, ev.u, ev.v) }
    } else {
      if (rp.delete(ev.u, ev.v)) {
        tau -= pattern.countInstances(adj, ev.u, ev.v)
        adj.remove(ev.u, ev.v)
      }
      nEdges -= 1
    }
}
