package repro.baselines

import scala.collection.mutable
import repro.core.{Adjacency, Edge, EdgeEvent, Pattern, Rng, SubgraphCounter}

/** WRS — waiting-room sampling (Shin, ICDM'17; Lee/Shin/Faloutsos, VLDB J
  * 2020 fully-dynamic version), generalised to the paper's three patterns.
  *
  * The budget `M` is split into a *waiting room* holding the `λ·M` most
  * recent live edges unconditionally (inclusion probability 1) and a
  * random-pairing reservoir over the older edges. The room is one
  * insertion-ordered set: a re-inserted edge enters at its tail, and its
  * head, the oldest edge, moves to the reservoir when the room overflows.
  * Estimation is ThinkD-style (update before sample): each closed instance
  * contributes the inverse joint inclusion probability of its
  * reservoir-resident edges only — waiting-room edges are certain.
  * Membership of the reservoir is `RPSampler`'s; this class keeps the
  * waiting room and the one adjacency over both that the estimator
  * enumerates.
  */
final class WRS(val pattern: Pattern, val M: Int, seed: Long, lambda: Double = 0.1)
    extends SubgraphCounter with Serializable {
  require(M >= 2, s"M=$M must be at least 2")
  require(lambda > 0 && lambda < 1, s"lambda must be in (0,1), got $lambda")

  private val wCap = math.max(1, (lambda * M).toInt)

  private val rp  = new RPSampler(M - wCap, new Rng(seed)) // older edges
  private val adj = new Adjacency // waiting room ∪ reservoir

  private val room = mutable.LinkedHashSet.empty[Long] // oldest first

  private var c = 0.0
  private var nEdges = 0L

  override val name = "WRS"
  override def sampleSize: Int = room.size + rp.size
  override def estimate: Double = c
  def waitingRoomSize: Int = room.size
  def reservoirSize: Int = rp.size

  override def process(ev: EdgeEvent): Unit = {
    // estimator first, over the current sample (waiting room ∪ reservoir)
    val reservoirPop = math.max(0L, (if (ev.insert) nEdges else nEdges - 1) - room.size)
    val rCap = rp.capacity
    val d = rp.uncompensated
    var delta = 0.0
    pattern.foreachInstance(adj, ev.u, ev.v) { others =>
      var kR = 0
      var i = 0
      while (i < others.length) { if (!room.contains(others(i))) kR += 1; i += 1 }
      val p = RPSampler.jointProb(kR, rCap, reservoirPop, d)
      if (p > 0) delta += 1.0 / p
    }
    if (ev.insert) { c += delta; insertEdge(ev.u, ev.v) }
    else { c -= delta; deleteEdge(ev.u, ev.v) }
  }

  private def insertEdge(u: Int, v: Int): Unit = {
    nEdges += 1
    val key = Edge.key(u, v)
    adj.add(u, v)
    room += key
    if (room.size > wCap) {
      val old = room.head
      room -= old
      reservoirInsert(old)
    }
  }

  /** The edge leaving the waiting room competes for the reservoir, whose
    * population is the live edges outside the waiting room. */
  private def reservoirInsert(key: Long): Unit = {
    val out = rp.insert(Edge.u(key), Edge.v(key), nEdges - room.size)
    if (out.hasEviction) adjRemove(out.evicted)
    if (!out.added) adjRemove(key)
  }

  private def deleteEdge(u: Int, v: Int): Unit = {
    nEdges -= 1
    val key = Edge.key(u, v)
    if (room.remove(key) || rp.delete(u, v)) adjRemove(key)
  }

  private def adjRemove(key: Long): Unit = adj.remove(Edge.u(key), Edge.v(key))
}
