package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.exact.ExactDynamicCounter

class WSDSpec extends AnyFunSuite {

  private def runStream(counter: SubgraphCounter, events: Array[EdgeEvent]): Unit =
    events.foreach(counter.process)

  test("reservoir never exceeds M and tracks live edges only") {
    val events = TestUtil.randomEvents(nVertices = 25, steps = 1500, seed = 1)
    val wsd = new WSD(Triangle, M = 30, HeuristicWeight, seed = 1)
    val live = scala.collection.mutable.HashSet.empty[Long]
    events.foreach { ev =>
      wsd.process(ev)
      if (ev.insert) live += ev.key else live -= ev.key
      assert(wsd.sampleSize <= 30)
      // a deleted edge must never linger in the reservoir (the GPS-A flaw)
      if (!ev.insert) assert(!wsd.sampled(ev.u, ev.v))
    }
    // every sampled edge is a live edge
    assert(wsd.sampleSize <= live.size + 0)
  }

  test("threshold invariants: τ_q ≤ τ_p and reservoir ranks ≥ τ_q") {
    val events = TestUtil.randomEvents(nVertices = 25, steps = 2000, seed = 2)
    val wsd = new WSD(Triangle, M = 25, HeuristicWeight, seed = 2)
    events.foreach { ev =>
      wsd.process(ev)
      assert(wsd.tauQ <= wsd.tauP + 1e-12, s"tauQ=${wsd.tauQ} > tauP=${wsd.tauP}")
      wsd.heap.values.foreach(e => assert(e.rank >= wsd.tauQ - 1e-12))
    }
  }

  test("thresholds stay zero while the reservoir never fills") {
    val events = TestUtil.randomEvents(nVertices = 15, steps = 300, seed = 3)
    val wsd = new WSD(Triangle, M = 10000, HeuristicWeight, seed = 3)
    runStream(wsd, events)
    assert(wsd.tauP == 0.0 && wsd.tauQ == 0.0)
  }

  // With M larger than the stream the estimator has all inclusion
  // probabilities equal to 1, so it must be *exactly* the true count.
  for (pattern <- Pattern.all)
    test(s"estimate is exact when nothing is evicted (${pattern.name})") {
      val events = TestUtil.randomEvents(nVertices = 14, steps = 500, seed = 4)
      val wsd = new WSD(pattern, M = 10000, HeuristicWeight, seed = 4)
      val exact = new ExactDynamicCounter(pattern)
      events.foreach { ev => wsd.process(ev); exact.process(ev) }
      assert(math.abs(wsd.estimate - exact.count) < 1e-6,
        s"wsd=${wsd.estimate} exact=${exact.count}")
    }

  test("deterministic given the seed") {
    val events = TestUtil.randomEvents(nVertices = 25, steps = 1000, seed = 5)
    def estimate(seed: Long): Double = {
      val w = new WSD(Triangle, M = 40, HeuristicWeight, seed)
      runStream(w, events); w.estimate
    }
    assert(estimate(11) == estimate(11))
    assert(estimate(11) != estimate(12)) // different randomness almost surely differs
  }

  // ---- statistical properties -----------------------------------------------

  private def monteCarloMean(pattern: Pattern, events: Array[EdgeEvent], m: Int,
                             weightFn: WeightFunction, trials: Int): (Double, Double) = {
    val estimates = (1 to trials).map { t =>
      val w = new WSD(pattern, m, weightFn, seed = 1000L + t)
      runStream(w, events)
      w.estimate
    }
    TestUtil.meanSem(estimates.map(x => x: Double))
  }

  for ((pattern, nV, steps) <- Seq((Wedge, 30, 400), (Triangle, 20, 400), (FourClique, 13, 250)))
    test(s"unbiasedness under deletions (${pattern.name}, heuristic weights)") {
      val events = TestUtil.randomEvents(nVertices = nV, steps = steps, seed = 42, deleteBias = 0.3)
      val exact = new ExactDynamicCounter(pattern)
      events.foreach(exact.process)
      val truth = exact.count.toDouble
      assert(truth > 0, "degenerate test setup — no instances at the end")
      val (mean, sem) = monteCarloMean(pattern, events, m = 60, HeuristicWeight, trials = 3000)
      assert(math.abs(mean - truth) <= 5 * sem + 1e-9,
        s"${pattern.name}: mean=$mean truth=$truth sem=$sem")
    }

  test("unbiasedness under deletions with constant weights (triangle)") {
    val events = TestUtil.randomEvents(nVertices = 20, steps = 400, seed = 43, deleteBias = 0.3)
    val exact = new ExactDynamicCounter(Triangle)
    events.foreach(exact.process)
    val truth = exact.count.toDouble
    val (mean, sem) = monteCarloMean(Triangle, events, m = 60, ConstantWeight, trials = 3000)
    assert(math.abs(mean - truth) <= 5 * sem + 1e-9, s"mean=$mean truth=$truth sem=$sem")
  }

  test("Lemma 1: E[1{e ∈ R}] = E[min(1, w/τ_q)] per edge") {
    // constant weights so w = 1 and p = min(1, 1/τ_q)
    val events = TestUtil.randomEvents(nVertices = 25, steps = 600, seed = 44, deleteBias = 0.3)
    val live = scala.collection.mutable.HashSet.empty[Long]
    events.foreach(ev => if (ev.insert) live += ev.key else live -= ev.key)
    val probes = live.toSeq.sorted.take(8)
    val trials = 4000
    val diffs = probes.map(_ => Array.newBuilder[Double])
    (1 to trials).foreach { t =>
      val w = new WSD(Triangle, M = 30, ConstantWeight, seed = 500L + t)
      runStream(w, events)
      val p = Rank.inclusionProb(1.0, w.tauQ)
      probes.zipWithIndex.foreach { case (k, i) =>
        val in = if (w.sampled(Edge.u(k), Edge.v(k))) 1.0 else 0.0
        diffs(i) += (in - p)
      }
    }
    probes.indices.foreach { i =>
      val (mean, sem) = TestUtil.meanSem(diffs(i).result().toSeq)
      assert(math.abs(mean) <= 5 * sem + 1e-9, s"edge $i: mean diff=$mean sem=$sem")
    }
  }

  test("equal weights ⇒ equal inclusion probabilities even after deletions") {
    // the Example 1 scenario that breaks naive GPS: constant weights, a
    // deletion after the reservoir is full, then more insertions
    val events = TestUtil.randomEvents(nVertices = 25, steps = 500, seed = 45, deleteBias = 0.3)
    val live = scala.collection.mutable.HashSet.empty[Long]
    events.foreach(ev => if (ev.insert) live += ev.key else live -= ev.key)
    val probes = live.toSeq.sorted
    val trials = 4000
    val hits = scala.collection.mutable.HashMap.empty[Long, Int].withDefaultValue(0)
    (1 to trials).foreach { t =>
      val w = new WSD(Triangle, M = 30, ConstantWeight, seed = 900L + t)
      runStream(w, events)
      probes.foreach(k => if (w.sampled(Edge.u(k), Edge.v(k))) hits(k) += 1)
    }
    val freqs = probes.map(k => hits(k).toDouble / trials)
    val grand = freqs.sum / freqs.size
    freqs.foreach { f =>
      assert(math.abs(f - grand) < 0.05, s"freq $f deviates from mean $grand")
    }
  }

  test("snapshot/restore round trip preserves behaviour") {
    val events = TestUtil.randomEvents(nVertices = 25, steps = 800, seed = 46)
    val (head, tail) = events.splitAt(400)
    val ref = new WSD(Triangle, M = 40, HeuristicWeight, seed = 77)
    runStream(ref, events)

    val first = new WSD(Triangle, M = 40, HeuristicWeight, seed = 77)
    runStream(first, head)
    val snap = first.toState
    val second = new WSD(Triangle, M = 40, HeuristicWeight, seed = 77)
    second.restoreState(snap)
    runStream(second, tail)
    assert(second.estimate == ref.estimate)
    assert(second.sampleSize == ref.sampleSize)
    assert(second.tauP == ref.tauP && second.tauQ == ref.tauQ)
  }

  test("M below |H| rejected") {
    intercept[IllegalArgumentException](new WSD(Triangle, M = 2, HeuristicWeight, seed = 1))
  }
}
