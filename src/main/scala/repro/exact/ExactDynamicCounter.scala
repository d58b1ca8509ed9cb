package repro.exact

import repro.core.{Adjacency, EdgeEvent, Pattern}

/** Exact incremental subgraph counter — the ground truth `|J^(t)|`.
  *
  * Maintains the full graph and, per event, adds/subtracts the number of
  * pattern instances closed by the event's edge against the current graph
  * (the same `Pattern.countInstances` the samplers use, but over the complete
  * adjacency; O(1) from degrees for wedges). Used for ARE/MARE denominators
  * and for RL rewards.
  */
final class ExactDynamicCounter(val pattern: Pattern) extends Serializable {
  val adj = new Adjacency
  private var c = 0L

  /** Current exact count of pattern instances in the graph. */
  def count: Long = c

  /** Number of edges currently in the graph. */
  def edgeCount: Long = adj.edgeCount

  def process(ev: EdgeEvent): Unit =
    if (ev.insert) {
      c += pattern.countInstances(adj, ev.u, ev.v)
      adj.add(ev.u, ev.v)
    } else {
      // countInstances never uses (u,v) itself, so count while still present.
      c -= pattern.countInstances(adj, ev.u, ev.v)
      adj.remove(ev.u, ev.v)
    }
}
