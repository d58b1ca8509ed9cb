package repro.core

import scala.collection.mutable

/** Read-only view of an undirected graph, as seen by pattern enumeration.
  *
  * Implemented both by the samplers' reservoir adjacency and by the exact
  * counter's full-graph adjacency. Contract, which `Pattern`'s closed-form
  * counts rely on: adjacency is symmetric (`v` in `neighbors(u)` iff `u` in
  * `neighbors(v)`), there are no self-loops, `contains(u, v)` iff `v` is in
  * `neighbors(u)`, and `degree(u) == neighbors(u).size`.
  */
trait GraphView {
  /** Neighbors of `u` (empty set if unknown vertex). */
  def neighbors(u: Int): collection.Set[Int]
  /** Whether edge (u, v) is present. */
  def contains(u: Int, v: Int): Boolean
  /** Degree of `u`. */
  def degree(u: Int): Int
}

/** Mutable undirected adjacency with O(1) edge add/remove/lookup. Stores
  * each edge in both directions and rejects self-loops and duplicates, so it
  * keeps the `GraphView` contract.
  */
final class Adjacency extends GraphView with Serializable {
  private val adj = mutable.HashMap.empty[Int, mutable.HashSet[Int]]
  private var m = 0L

  /** Number of edges currently present. */
  def edgeCount: Long = m

  def add(u: Int, v: Int): Unit = {
    require(u != v, s"self loop $u")
    val su = adj.getOrElseUpdate(u, mutable.HashSet.empty[Int])
    require(su.add(v), s"duplicate edge ($u,$v)")
    adj.getOrElseUpdate(v, mutable.HashSet.empty[Int]).add(u)
    m += 1
  }

  def remove(u: Int, v: Int): Unit = {
    val su = adj.getOrElse(u, null)
    require(su != null && su.remove(v), s"removing absent edge ($u,$v)")
    if (su.isEmpty) adj.remove(u)
    val sv = adj(v); sv.remove(u); if (sv.isEmpty) adj.remove(v)
    m -= 1
  }

  override def neighbors(u: Int): collection.Set[Int] =
    adj.getOrElse(u, Adjacency.emptySet)

  override def contains(u: Int, v: Int): Boolean = {
    val su = adj.getOrElse(u, null)
    su != null && su.contains(v)
  }

  override def degree(u: Int): Int = {
    val su = adj.getOrElse(u, null)
    if (su == null) 0 else su.size
  }
}

object Adjacency {
  private val emptySet: collection.Set[Int] = Set.empty[Int]
}
