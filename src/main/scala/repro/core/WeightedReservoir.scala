package repro.core

/** The rank-based weighted reservoir shared by WSD and GPS/GPS-A, fused with
  * the subgraph-count estimator (Algorithm 2).
  *
  * The sampler keeps a min-priority reservoir of at most `M` edges and two
  * thresholds: `τ_p`, the minimum sampled rank when the reservoir was last
  * full, and `τ_q`, the rank value whose exceedance probability equals each
  * sampled edge's inclusion probability
  * (`P[e ∈ R] = P[r(e) > τ_q] = min(1, w(e)/τ_q)`, Lemma 1). For GPS, `τ_q`
  * is `z = r_{M+1}`: the running maximum over all evicted and refused ranks.
  *
  * On every event the estimator is updated *before* the reservoir
  * (Algorithm 2 observes `R` and `τ_q` "just after time t−1"): each pattern
  * instance closed by the event's edge contributes the product of the other
  * edges' inverse inclusion probabilities, added on insertion and
  * subtracted on deletion. Theorems 2 and 4 prove this unbiased; the
  * Monte-Carlo test suites check it empirically.
  *
  * The insertion path also materialises the MDP state of Eq. (22) for the
  * weight function, with the `v_j` temporal features aggregated by
  * `temporalAgg` (Max in the paper, Avg in the Table XIII ablation).
  *
  * A full reservoir treats a new edge of rank `r` the same way in both
  * samplers: if `r` beats the minimum rank, the minimum is evicted and
  * `τ_q ← max(τ_q, minRank)`; otherwise `τ_q ← max(τ_q, r)`. For WSD this is
  * Algorithm 1's `τ_q ← τ_p` (Case 2.1) and `τ_q ← r` (Case 2.2), since no
  * sampled rank is below `τ_q`. The samplers differ in their insert policy
  * while the reservoir is not full and in their delete policy.
  */
abstract class WeightedReservoir(
    val pattern: Pattern,
    val M: Int,
    val weightFn: WeightFunction,
    seed: Long,
    temporalAgg: TemporalAgg,
) extends SubgraphCounter with Serializable {
  require(M >= pattern.size, s"M=$M must be at least |H|=${pattern.size}")

  protected val rng = new Rng(seed)
  private[core] val heap = new IndexedMinHeap(M + 1)
  /** The sampled edges the estimator enumerates (GPS-A leaves out tagged ones). */
  protected val adj = new Adjacency

  protected var tauPv = 0.0
  protected var tauQv = 0.0
  protected var c     = 0.0
  protected var t     = 0L

  /** Last MDP state built on an insertion event (for RL training). */
  private var lastStateV: Array[Double] = Array.empty

  def lastState: Array[Double] = lastStateV
  override def estimate: Double = c
  override def sampleSize: Int = heap.size

  /** Whether a new edge of rank `r` enters a reservoir that is not full. */
  protected def admitWhileFilling(r: Double): Boolean

  /** Runs before a new edge `(u, v)` competes for a slot. */
  protected def beforeInsert(key: Long, u: Int, v: Int): Unit = ()

  /** Case 3: what a deletion of `(u, v)` does to the reservoir. */
  protected def deleteEdge(key: Long, u: Int, v: Int): Unit

  override final def process(ev: EdgeEvent): Unit = {
    t += 1
    val d = pattern.size - 1
    var delta = 0.0
    var nInst = 0L
    val wantTemporal = ev.insert && weightFn.needsTemporal
    // temporal accumulator over the sorted other-edge arrival times
    val agg   = new Array[Double](d)
    val times = new Array[Double](d)
    pattern.foreachInstance(adj, ev.u, ev.v) { others =>
      nInst += 1
      var p = 1.0
      var i = 0
      while (i < others.length) {
        val e = heap(others(i))
        p *= Rank.inclusionProb(e.w, tauQv)
        times(i) = e.time.toDouble
        i += 1
      }
      delta += 1.0 / p
      if (wantTemporal) {
        java.util.Arrays.sort(times)
        i = 0
        temporalAgg match {
          case TemporalAgg.Max => while (i < d) { if (times(i) > agg(i)) agg(i) = times(i); i += 1 }
          case TemporalAgg.Avg => while (i < d) { agg(i) += times(i); i += 1 }
        }
      }
    }

    if (ev.insert) {
      c += delta
      val state = new Array[Double](3 + pattern.size)
      state(0) = nInst.toDouble
      state(1) = adj.degree(ev.u).toDouble
      state(2) = adj.degree(ev.v).toDouble
      if (wantTemporal && nInst > 0) {
        var i = 0
        while (i < d) {
          state(3 + i) = temporalAgg match {
            case TemporalAgg.Max => agg(i)
            case TemporalAgg.Avg => agg(i) / nInst
          }
          i += 1
        }
        state(3 + d) = t.toDouble // v_|H| — the new edge itself
      }
      lastStateV = state
      insertEdge(ev.u, ev.v, weightFn.weight(state))
    } else {
      c -= delta
      deleteEdge(Edge.key(ev.u, ev.v), ev.u, ev.v)
    }
  }

  private def insertEdge(u: Int, v: Int, w: Double): Unit = {
    val r = Rank.draw(w, rng)
    val key = Edge.key(u, v)
    beforeInsert(key, u, v)
    if (heap.size < M) {
      // Case 1: non-full reservoir — thresholds are held (Section III-C).
      if (admitWhileFilling(r)) add(key, u, v, w, r)
    } else {
      // Case 2: full reservoir — τ_p becomes the minimum sampled rank.
      val minRank = heap.minRank
      tauPv = minRank
      if (r > minRank) { // Case 2.1
        val min = heap.popMin()
        if (!min.tagged) adj.remove(Edge.u(min.key), Edge.v(min.key))
        add(key, u, v, w, r)
        tauQv = math.max(tauQv, minRank)
      } else { // Case 2.2, or Case 2.3 when r ≤ τ_q
        tauQv = math.max(tauQv, r)
      }
    }
  }

  private def add(key: Long, u: Int, v: Int, w: Double, r: Double): Unit = {
    heap.insert(key, r, w, t)
    adj.add(u, v)
  }
}
