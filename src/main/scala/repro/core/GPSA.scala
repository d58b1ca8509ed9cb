package repro.core

/** GPS [14] and its fully-dynamic adaptation GPS-A (Section III-A/B), on
  * the shared [[WeightedReservoir]].
  *
  * Sampling is identical to GPS: a new edge is always admitted while the
  * reservoir is non-full; once full it must beat the minimum sampled rank.
  * `τ_q` is `z = r_{M+1}` — the (M+1)-th largest rank among all inserted
  * edges, which is exactly the running maximum over all rejected/evicted
  * ranks — and gives the inclusion probability `P[e ∈ R] = min(1, w/z)`.
  *
  * Deletions (GPS-A) only attach a DEL tag: the edge keeps occupying a
  * reservoir slot (and keeps competing by rank), but is excluded from the
  * estimator's adjacency. This is the paper's strawman whose wasted slots
  * cost accuracy; `WSD` fixes it.
  *
  * With an insertion-only stream this class *is* GPS (construct with
  * `name = "GPS"`).
  */
final class GPSA(
    pattern: Pattern,
    M: Int,
    weightFn: WeightFunction,
    seed: Long,
    override val name: String = "GPS-A",
) extends WeightedReservoir(pattern, M, weightFn, seed, TemporalAgg.Max) {

  def rM1: Double = tauQv
  /** Number of DEL-tagged (wasted) slots — GPS-A's intrinsic drawback. */
  def taggedCount: Int = heap.values.count(_.tagged)

  override protected def admitWhileFilling(r: Double): Boolean = true

  // Re-insertion of an edge whose DEL-tagged copy still occupies a slot
  // (feasible in a fully dynamic stream): the stale copy is evicted first.
  // The paper's streams delete each edge at most once, so this path only
  // matters for adversarial inputs; it keeps the reservoir keyable by edge.
  override protected def beforeInsert(key: Long, u: Int, v: Int): Unit =
    heap.get(key).foreach { stale =>
      require(stale.tagged, s"insert of live edge ($u,$v)")
      heap.removeKey(key)
    }

  override protected def deleteEdge(key: Long, u: Int, v: Int): Unit =
    heap.get(key).foreach { e =>
      if (!e.tagged) { e.tagged = true; adj.remove(u, v) }
    }
}

object GPSA {
  /** GPS proper — for insertion-only streams (Table VI). */
  def gps(pattern: Pattern, m: Int, weightFn: WeightFunction, seed: Long): GPSA =
    new GPSA(pattern, m, weightFn, seed, name = "GPS")
}
