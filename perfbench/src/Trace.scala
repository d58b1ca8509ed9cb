package perfbench

import repro.core.{EdgeEvent, WSD, WeightFunction}

/** Weight function that forwards to `inner` and records what the sampler
  * asked of it: how many calls, the instance count `state(0)` each call
  * saw, and the time spent inside `inner.weight`. Returns exactly what
  * `inner` returns, so the sample is unchanged. */
final class CountingWeight(inner: WeightFunction) extends WeightFunction {
  var calls = 0L
  var instances = 0.0
  var nanos = 0L

  override def name: String = inner.name
  override def needsTemporal: Boolean = inner.needsTemporal
  override def weight(state: Array[Double]): Double = {
    calls += 1
    instances += state(0)
    val t0 = System.nanoTime()
    val w = inner.weight(state)
    nanos += System.nanoTime() - t0
    w
  }
}

/** WSD's reservoir cases (Algorithm 1), inferred per event from the public
  * `sampleSize`, `tauQ` and `sampled` before and after the event:
  *
  *  - case 1: insertion into a non-full reservoir;
  *  - case 2.1: full reservoir, the new edge displaced the minimum;
  *  - case 2.2: full reservoir, the edge was rejected but raised `τ_q`;
  *  - case 2.3: full reservoir, the edge was discarded;
  *  - case 3: deletion of a sampled edge (a deletion of an unsampled edge
  *    leaves the reservoir alone and is not counted).
  */
final class CaseMix(w: WSD) {
  val counts = new Array[Long](5)
  private var sizeBefore = 0
  private var tauQBefore = 0.0
  private var wasSampled = false

  def before(ev: EdgeEvent): Unit = {
    sizeBefore = w.sampleSize
    tauQBefore = w.tauQ
    wasSampled = w.sampled(ev.u, ev.v)
  }

  def after(ev: EdgeEvent): Unit = {
    val c =
      if (!ev.insert) { if (wasSampled) 4 else -1 }
      else if (sizeBefore < w.M) 0
      else if (w.sampled(ev.u, ev.v)) 1
      else if (w.tauQ != tauQBefore) 2
      else 3
    if (c >= 0) counts(c) += 1
  }
}

object CaseMix {
  val labels: Seq[String] = Seq("case_1", "case_2_1", "case_2_2", "case_2_3", "case_3")
}
