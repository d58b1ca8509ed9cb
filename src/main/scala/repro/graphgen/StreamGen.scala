package repro.graphgen

import scala.collection.mutable
import repro.core.{Edge, EdgeEvent, Rng}

/** Builders that turn an ordered edge list into a fully dynamic stream,
  * following Section V-A exactly. Edges are inserted in the list's order.
  *
  *  - **massive deletion**: after each insertion, with probability `α` a
  *    massive deletion event fires in which every currently-live edge is
  *    deleted independently with probability `β_m` (deletions emitted in
  *    random order);
  *  - **light deletion**: every edge is deleted with probability `β_l` at a
  *    uniformly random position after its insertion;
  *  - **insertion-only**: every edge inserted, none deleted.
  *
  * All streams are *feasible* by construction (insert only absent edges,
  * delete only present ones) — asserted in tests.
  */
object StreamGen {

  def insertionOnly(edges: Array[Long]): Array[EdgeEvent] =
    edges.map(k => EdgeEvent(insert = true, Edge.u(k), Edge.v(k)))

  def massive(edges: Array[Long], alpha: Double, betaM: Double, seed: Long): Array[EdgeEvent] = {
    val rng = new Rng(seed)
    val out = mutable.ArrayBuffer.empty[EdgeEvent]
    var alive = mutable.ArrayBuffer.empty[Long]
    edges.foreach { k =>
      out += EdgeEvent(insert = true, Edge.u(k), Edge.v(k))
      alive += k
      if (rng.nextDouble() < alpha) {
        val (doomed, kept) = alive.partition(_ => rng.nextDouble() < betaM)
        shuffleInPlace(doomed, rng)
        doomed.foreach(d => out += EdgeEvent(insert = false, Edge.u(d), Edge.v(d)))
        alive = kept
      }
    }
    out.toArray
  }

  def light(edges: Array[Long], betaL: Double, seed: Long): Array[EdgeEvent] = {
    val rng = new Rng(seed)
    val n = edges.length
    // (position, event); insertions at integer positions, deletions at a
    // uniform fractional position strictly after their insertion
    val slots = mutable.ArrayBuffer.empty[(Double, EdgeEvent)]
    var i = 0
    while (i < n) {
      val k = edges(i)
      slots += ((i.toDouble, EdgeEvent(insert = true, Edge.u(k), Edge.v(k))))
      if (rng.nextDouble() < betaL) {
        val pos = i + 1e-9 + rng.nextDouble() * (n - i)
        slots += ((pos, EdgeEvent(insert = false, Edge.u(k), Edge.v(k))))
      }
      i += 1
    }
    slots.sortBy(_._1).map(_._2).toArray
  }

  private def shuffleInPlace(buf: mutable.ArrayBuffer[Long], rng: Rng): Unit = {
    var i = buf.length - 1
    while (i > 0) { val j = rng.nextInt(i + 1); val t = buf(i); buf(i) = buf(j); buf(j) = t; i -= 1 }
  }
}

/** A deletion scenario from Section V-A, applied to an ordered edge list. */
sealed trait Scenario extends Serializable {
  def label: String
  def build(edges: Array[Long], seed: Long): Array[EdgeEvent]
}
object Scenario {

  /** Massive deletion: `α` is expressed as expected massive events per
    * stream (`alphaEvents / |E|` per insertion), paper default β_m = 0.8.
    */
  final case class Massive(alphaEvents: Double = 4.0, beta: Double = 0.8) extends Scenario {
    val label = "massive"
    override def build(edges: Array[Long], seed: Long): Array[EdgeEvent] =
      StreamGen.massive(edges, alphaEvents / math.max(1, edges.length), beta, seed)
  }

  /** Light deletion: paper default β_l = 0.2. */
  final case class Light(beta: Double = 0.2) extends Scenario {
    val label = "light"
    override def build(edges: Array[Long], seed: Long): Array[EdgeEvent] =
      StreamGen.light(edges, beta, seed)
  }

  /** Insertion-only special case (Table VI). */
  case object InsertOnly extends Scenario {
    val label = "insert-only"
    override def build(edges: Array[Long], seed: Long): Array[EdgeEvent] =
      StreamGen.insertionOnly(edges)
  }
}
