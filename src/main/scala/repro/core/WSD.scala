package repro.core

/** WSD — weighted sampling with deletions (Algorithm 1) fused with the
  * subgraph-count estimator (Algorithm 2), on the shared
  * [[WeightedReservoir]].
  *
  * While the reservoir is not full, a new edge enters only if its rank
  * beats `τ_p`; a deleted edge is evicted physically and the thresholds are
  * held (Case 3), so no slot is wasted on a dead edge.
  */
final class WSD(
    pattern: Pattern,
    M: Int,
    weightFn: WeightFunction,
    seed: Long,
    temporalAgg: TemporalAgg = TemporalAgg.Max,
    override val name: String = "WSD",
) extends WeightedReservoir(pattern, M, weightFn, seed, temporalAgg) {

  def tauP: Double = tauPv
  def tauQ: Double = tauQv

  /** Reservoir membership (for invariant tests). */
  def sampled(u: Int, v: Int): Boolean = heap.contains(Edge.key(u, v))

  override protected def admitWhileFilling(r: Double): Boolean = r > tauPv

  override protected def deleteEdge(key: Long, u: Int, v: Int): Unit =
    if (heap.removeKey(key)) adj.remove(u, v)

  // ---- Structured Streaming state round trip --------------------------------

  /** Snapshot the full sampler state (used by `repro.spark.StreamingWSD`). */
  def toState: WSDSnapshot = {
    val ks = new Array[Long](heap.size)
    val ws = new Array[Double](heap.size)
    val rs = new Array[Double](heap.size)
    val ts = new Array[Long](heap.size)
    var i = 0
    heap.values.foreach { e => ks(i) = e.key; ws(i) = e.w; rs(i) = e.rank; ts(i) = e.time; i += 1 }
    WSDSnapshot(ks, ws, rs, ts, tauPv, tauQv, c, t, rng.stateSnapshot)
  }

  /** Restore a snapshot taken with [[toState]]. */
  def restoreState(s: WSDSnapshot): Unit = {
    require(heap.isEmpty, "restoreState on a used sampler")
    var i = 0
    while (i < s.keys.length) {
      val k = s.keys(i)
      heap.insert(k, s.ranks(i), s.weights(i), s.times(i))
      adj.add(Edge.u(k), Edge.v(k))
      i += 1
    }
    tauPv = s.tauP; tauQv = s.tauQ; c = s.estimate; t = s.time
    rng.restore(s.rngState)
  }
}

/** Flat, product-encodable snapshot of a WSD sampler (streaming state). */
final case class WSDSnapshot(
    keys: Array[Long],
    weights: Array[Double],
    ranks: Array[Double],
    times: Array[Long],
    tauP: Double,
    tauQ: Double,
    estimate: Double,
    time: Long,
    rngState: Long,
)
