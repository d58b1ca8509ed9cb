package repro.core

import scala.collection.mutable

/** A subgraph pattern `H` (wedge, triangle or 4-clique).
  *
  * The single primitive every algorithm in the paper needs is: given a graph
  * view `g` (the sampled reservoir, or the exact graph) and an edge `(u,v)`
  * *not treated as part of `g`*, enumerate each instance of `H` that contains
  * `(u,v)` plus `size - 1` edges of `g` (line 4 of Algorithm 2). The visitor
  * receives the canonical keys of those *other* edges.
  *
  * Enumeration never yields `(u,v)` itself among the other edges, so it is
  * safe to call whether or not `(u,v)` is currently stored in `g` (the
  * deletion path of Algorithm 2 calls it while the edge is still sampled).
  */
sealed trait Pattern extends Serializable {
  /** Human name used in table rows. */
  def name: String
  /** Number of edges |H| in the pattern. */
  def size: Int
  /** Visit the other-edge keys of each instance closed by `(u,v)` in `g`. */
  def foreachInstance(g: GraphView, u: Int, v: Int)(visit: Array[Long] => Unit): Unit

  /** Count of instances closed by `(u,v)` in `g`: the number of
    * `foreachInstance` visits, or a closed form that equals it. */
  def countInstances(g: GraphView, u: Int, v: Int): Long = {
    var c = 0L
    foreachInstance(g, u, v)(_ => c += 1)
    c
  }
}

/** Length-2 path: the new edge plus one adjacent edge. */
case object Wedge extends Pattern {
  val name = "wedge"
  val size = 2
  override def foreachInstance(g: GraphView, u: Int, v: Int)(visit: Array[Long] => Unit): Unit = {
    val out = new Array[Long](1)
    g.neighbors(u).foreach { w => if (w != v) { out(0) = Edge.key(u, w); visit(out) } }
    g.neighbors(v).foreach { w => if (w != u) { out(0) = Edge.key(v, w); visit(out) } }
  }

  /** Every edge at `u` or `v` other than `(u,v)` itself closes one wedge.
    * Equals the enumeration's count on any `GraphView` that keeps its
    * contract, whether or not `(u,v)` is present, and also for `u == v`.
    */
  override def countInstances(g: GraphView, u: Int, v: Int): Long =
    g.degree(u).toLong + g.degree(v) - (if (g.contains(u, v)) 2 else 0)
}

/** 3-clique: the new edge plus the two edges to a common neighbor. */
case object Triangle extends Pattern {
  val name = "triangle"
  val size = 3
  override def foreachInstance(g: GraphView, u: Int, v: Int)(visit: Array[Long] => Unit): Unit = {
    val nu = g.neighbors(u); val nv = g.neighbors(v)
    val (small, a, large, b) = if (nu.size <= nv.size) (nu, u, nv, v) else (nv, v, nu, u)
    val out = new Array[Long](2)
    small.foreach { w =>
      if (w != a && w != b && large.contains(w)) {
        out(0) = Edge.key(a, w); out(1) = Edge.key(b, w)
        visit(out)
      }
    }
  }
}

/** 4-clique: the new edge plus the five edges among {u, v, w, x}. */
case object FourClique extends Pattern {
  val name = "4-clique"
  val size = 6
  override def foreachInstance(g: GraphView, u: Int, v: Int)(visit: Array[Long] => Unit): Unit = {
    val nu = g.neighbors(u); val nv = g.neighbors(v)
    val small = if (nu.size <= nv.size) nu else nv
    val other = if (nu.size <= nv.size) nv else nu
    val common = mutable.ArrayBuffer.empty[Int]
    small.foreach { w => if (w != u && w != v && other.contains(w)) common += w }
    if (common.size < 2) return
    val cs = common.toArray
    val out = new Array[Long](5)
    var i = 0
    while (i < cs.length) {
      var j = i + 1
      while (j < cs.length) {
        val w = cs(i); val x = cs(j)
        if (g.contains(w, x)) {
          out(0) = Edge.key(u, w); out(1) = Edge.key(v, w)
          out(2) = Edge.key(u, x); out(3) = Edge.key(v, x)
          out(4) = Edge.key(w, x)
          visit(out)
        }
        j += 1
      }
      i += 1
    }
  }
}

object Pattern {
  /** All patterns evaluated in the paper. */
  val all: Seq[Pattern] = Seq(Wedge, Triangle, FourClique)

  /** Lookup by table name. */
  def byName(n: String): Pattern = all.find(_.name == n).getOrElse(
    throw new IllegalArgumentException(s"unknown pattern $n"))
}
