package repro.baselines

import scala.collection.mutable
import repro.core.{Edge, Rng}

/** Random Pairing (Gemulla et al., VLDB'06) — the uniform fully-dynamic
  * reservoir all three baselines (Triest / ThinkD / WRS) build on.
  *
  * Maintains a uniform sample of the *current* edge set under insertions and
  * deletions: a deletion of a sampled edge frees a slot (`nb`), a deletion of
  * an unsampled edge is only counted (`ng`); subsequent insertions first
  * compensate the uncompensated deletions (enter the sample with probability
  * `nb/(nb+ng)`), and once fully compensated fall back to classic reservoir
  * sampling over the live population.
  */
final class RPSampler(val capacity: Int, rng: Rng) extends Serializable {
  import RPSampler.InsertOutcome

  private val keys = mutable.ArrayBuffer.empty[Long]
  private val idx  = mutable.HashMap.empty[Long, Int]

  /** Uncompensated deletions that were (`nb`) / were not (`ng`) in sample. */
  var nb = 0L
  var ng = 0L

  def size: Int = keys.length
  def uncompensated: Long = nb + ng
  def contains(key: Long): Boolean = idx.contains(key)

  /** Process an insertion; `population` is the live-edge count *including*
    * the new edge. The sampler keeps only membership: the outcome says
    * whether the edge entered and which sampled edge (if any) it replaced,
    * so callers can update the graph view they enumerate over.
    */
  def insert(u: Int, v: Int, population: Long): InsertOutcome = {
    val key = Edge.key(u, v)
    if (nb + ng > 0) {
      if (rng.nextDouble() * (nb + ng) < nb) { nb -= 1; add(key); RPSampler.Added }
      else { ng -= 1; RPSampler.Rejected }
    } else if (keys.length < capacity) {
      add(key); RPSampler.Added
    } else if (population > 0 && rng.nextDouble() * population < capacity) {
      val victim = keys(rng.nextInt(keys.length))
      removeKey(victim)
      add(key)
      InsertOutcome(added = true, victim)
    } else RPSampler.Rejected
  }

  /** Process a deletion; returns true iff the edge was sampled. */
  def delete(u: Int, v: Int): Boolean = {
    val key = Edge.key(u, v)
    if (idx.contains(key)) { removeKey(key); nb += 1; true }
    else { ng += 1; false }
  }

  private def add(key: Long): Unit = {
    idx(key) = keys.length
    keys += key
  }

  private def removeKey(key: Long): Unit = {
    val i = idx.remove(key).get
    val last = keys.remove(keys.length - 1)
    if (i < keys.length) { keys(i) = last; idx(last) = i }
  }
}

object RPSampler {
  /** Sentinel for "no eviction happened". */
  val NoEdge: Long = -1L

  /** What an insertion did to the sample. */
  final case class InsertOutcome(added: Boolean, evicted: Long) {
    def hasEviction: Boolean = evicted != NoEdge
  }
  private val Added    = InsertOutcome(added = true, NoEdge)
  private val Rejected = InsertOutcome(added = false, NoEdge)

  /** Joint inclusion probability of `k` distinct live edges in an RP sample
    * of capacity `cap` over `population` live edges with `d` uncompensated
    * deletions: `Π_{j<k} min(1, (cap−j)/(population+d−j))` (the form ThinkD
    * and Triest-FD use for their estimators).
    */
  def jointProb(k: Int, cap: Int, population: Long, d: Long): Double = {
    var p = 1.0
    var j = 0
    while (j < k) {
      val denom = population + d - j
      if (denom > 0) p *= math.min(1.0, (cap - j).toDouble / denom)
      j += 1
    }
    p
  }
}
