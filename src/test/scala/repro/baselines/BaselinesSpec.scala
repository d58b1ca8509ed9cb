package repro.baselines

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{Adjacency, Edge, EdgeEvent, Pattern, Rng, SubgraphCounter, Triangle, Wedge}
import repro.exact.ExactDynamicCounter

class RPSamplerSpec extends AnyFunSuite {

  test("sample stays within capacity and mirrors adjacency") {
    // an adjacency kept from the reported outcomes mirrors the sample
    val rng = new Rng(1)
    val rp = new RPSampler(20, rng)
    val adj = new Adjacency
    val keys = mutable.HashSet.empty[Long] // the sample, from the outcomes
    val events = TestUtil.randomEvents(nVertices = 25, steps = 2000, seed = 1, deleteBias = 0.3)
    var n = 0L
    events.foreach { ev =>
      if (ev.insert) {
        n += 1
        val out = rp.insert(ev.u, ev.v, n)
        if (out.hasEviction) { adj.remove(Edge.u(out.evicted), Edge.v(out.evicted)); keys -= out.evicted }
        if (out.added) { adj.add(ev.u, ev.v); keys += ev.key }
      } else { if (rp.delete(ev.u, ev.v)) { adj.remove(ev.u, ev.v); keys -= ev.key }; n -= 1 }
      assert(rp.size <= 20)
      assert(adj.edgeCount == rp.size)
      assert(keys.size == rp.size && keys.forall(rp.contains))
      assert(keys.forall(k => adj.contains(Edge.u(k), Edge.v(k))))
    }
  }

  test("insertion-only fills up to capacity, then swaps") {
    val rng = new Rng(2)
    val rp = new RPSampler(10, rng)
    (1 to 10).foreach(i => rp.insert(0, i, i))
    assert(rp.size == 10)
    (11 to 100).foreach(i => rp.insert(0, i, i))
    assert(rp.size == 10)
  }

  test("uniformity: every edge equally likely to be sampled (insertion-only)") {
    val nEdges = 40
    val cap = 10
    val trials = 6000
    val hits = new Array[Int](nEdges)
    (1 to trials).foreach { t =>
      val rp = new RPSampler(cap, new Rng(t))
      (0 until nEdges).foreach(i => rp.insert(0, i + 1, i + 1))
      (0 until nEdges).foreach(i => if (rp.contains(Edge.key(0, i + 1))) hits(i) += 1)
    }
    val expected = cap.toDouble / nEdges
    hits.foreach { h =>
      assert(math.abs(h.toDouble / trials - expected) < 0.035,
        s"freq ${h.toDouble / trials} vs $expected")
    }
  }

  test("uniformity holds under deletions (random pairing)") {
    // insert 30, delete 10 specific ones, insert 10 more; all 30 live edges
    // must have (approximately) equal inclusion probability
    val trials = 6000
    val hits = mutable.HashMap.empty[Long, Int].withDefaultValue(0)
    val live = (0 until 20).map(i => Edge.key(100, i + 1)) ++ (0 until 10).map(i => Edge.key(200, i + 1))
    (1 to trials).foreach { t =>
      val rp = new RPSampler(8, new Rng(t))
      var n = 0L
      (0 until 30).foreach { i => n += 1; rp.insert(100, i + 1, n) }
      (20 until 30).foreach { i => rp.delete(100, i + 1); n -= 1 }
      (0 until 10).foreach { i => n += 1; rp.insert(200, i + 1, n) }
      live.foreach(k => if (rp.contains(k)) hits(k) += 1)
    }
    val freqs = live.map(k => hits(k).toDouble / trials)
    val grand = freqs.sum / freqs.size
    freqs.foreach(f => assert(math.abs(f - grand) < 0.04, s"freq $f vs mean $grand"))
  }

  test("jointProb caps factors at 1 and handles degenerate inputs") {
    assert(RPSampler.jointProb(0, 10, 100, 0) == 1.0)
    assert(RPSampler.jointProb(2, 10, 5, 0) == 1.0) // capacity exceeds population
    val p = RPSampler.jointProb(2, 10, 100, 0)
    assert(math.abs(p - (10.0 / 100) * (9.0 / 99)) < 1e-12)
    assert(RPSampler.jointProb(1, 10, 0, 0) == 1.0) // empty population guard
  }
}

class BaselineCountersSpec extends AnyFunSuite {

  private def algorithms(pattern: Pattern, m: Int, seed: Long): Seq[SubgraphCounter] =
    Seq(new Triest(pattern, m, seed), new ThinkD(pattern, m, seed), new WRS(pattern, m, seed))

  test("names match the paper's columns") {
    assert(algorithms(Triangle, 10, 1).map(_.name) == Seq("Triest", "ThinkD", "WRS"))
  }

  for (pattern <- Pattern.all)
    test(s"sample size bounded by M under heavy dynamics (${pattern.name})") {
      val events = TestUtil.randomEvents(nVertices = 20, steps = 1200, seed = 7, deleteBias = 0.35)
      algorithms(pattern, m = 25, seed = 3).foreach { alg =>
        events.foreach { ev => alg.process(ev); assert(alg.sampleSize <= 25, alg.name) }
      }
    }

  test("exact when the budget holds everything (insertion-only)") {
    val events = TestUtil.randomEvents(nVertices = 30, steps = 300, seed = 8, deleteBias = 0.0)
    val exact = new ExactDynamicCounter(Triangle)
    events.foreach(exact.process)
    algorithms(Triangle, m = 10000, seed = 5).foreach { alg =>
      events.foreach(alg.process)
      assert(math.abs(alg.estimate - exact.count) < 1e-6, s"${alg.name}: ${alg.estimate} vs ${exact.count}")
    }
  }

  private def mcMean(mk: Long => SubgraphCounter, events: Array[EdgeEvent], trials: Int): (Double, Double) = {
    val estimates = (1 to trials).map { t =>
      val alg = mk(6000L + t)
      events.foreach(alg.process)
      alg.estimate
    }
    TestUtil.meanSem(estimates.map(x => x: Double))
  }

  // The RP-based estimators use the standard joint-inclusion approximation;
  // we allow a small bias band on top of the Monte-Carlo noise.
  for ((label, mk) <- Seq[(String, (Pattern, Int, Long) => SubgraphCounter)](
         ("Triest", (p, m, s) => new Triest(p, m, s)),
         ("ThinkD", (p, m, s) => new ThinkD(p, m, s)),
         ("WRS", (p, m, s) => new WRS(p, m, s))))
    test(s"$label approximately unbiased on a dynamic stream (triangles)") {
      val events = TestUtil.randomEvents(nVertices = 20, steps = 400, seed = 9, deleteBias = 0.25)
      val exact = new ExactDynamicCounter(Triangle)
      events.foreach(exact.process)
      val truth = exact.count.toDouble
      assert(truth > 0)
      val (mean, sem) = mcMean(s => mk(Triangle, 60, s), events, trials = 3000)
      assert(math.abs(mean - truth) <= 5 * sem + 0.05 * truth,
        s"$label: mean=$mean truth=$truth sem=$sem")
    }

  test("ThinkD approximately unbiased for wedges") {
    val events = TestUtil.randomEvents(nVertices = 25, steps = 400, seed = 10, deleteBias = 0.25)
    val exact = new ExactDynamicCounter(Wedge)
    events.foreach(exact.process)
    val truth = exact.count.toDouble
    val (mean, sem) = mcMean(s => new ThinkD(Wedge, 60, s), events, trials = 2000)
    assert(math.abs(mean - truth) <= 5 * sem + 0.05 * truth, s"mean=$mean truth=$truth sem=$sem")
  }

  test("WRS waiting room holds the most recent edges") {
    val wrs = new WRS(Triangle, M = 40, seed = 11, lambda = 0.25)
    val events = TestUtil.randomEvents(nVertices = 40, steps = 600, seed = 11, deleteBias = 0.0)
    events.foreach(wrs.process)
    assert(wrs.waitingRoomSize == 10) // λ·M
    assert(wrs.reservoirSize <= 30)
  }

  // An edge deleted from the waiting room and inserted again is one of the
  // λ·M most recent edges, so it must stay in the room. With every closing
  // edge in the room each instance counts with p = 1 and the estimate is
  // exact: wedges (0,1)-(0,2), (0,1)-(0,3), (0,2)-(0,3) and (0,1)-(1,5).
  test("WRS keeps a re-inserted edge in the waiting room") {
    val filler = (0 until 40).map(i => EdgeEvent(insert = true, 100 + 2 * i, 101 + 2 * i))
    val tail = Seq((true, 0, 1), (true, 0, 2), (false, 0, 1), (true, 0, 1), (true, 0, 3), (true, 1, 5))
      .map { case (ins, u, v) => EdgeEvent(ins, u, v) }
    for (seed <- 1L to 5L) {
      val wrs = new WRS(Wedge, M = 10, seed, lambda = 0.2) // waiting room of 2
      (filler ++ tail).foreach(wrs.process)
      assert(wrs.estimate == 4.0, s"seed $seed")
    }
  }

  // Fixed-seed checkpoints of (estimate, sampleSize, waitingRoomSize,
  // reservoirSize) on dynamic streams with evictions and compensation. Any
  // change to membership, RNG draws or summation order shows up here.
  private def wrsTrace(pattern: Pattern, events: Array[EdgeEvent], m: Int, seed: Long): Seq[(Double, Int, Int, Int)] = {
    val wrs = new WRS(pattern, m, seed)
    events.indices.flatMap { i =>
      wrs.process(events(i))
      if ((i + 1) % 200 == 0) Some((wrs.estimate, wrs.sampleSize, wrs.waitingRoomSize, wrs.reservoirSize))
      else None
    }
  }

  test("WRS golden trace (triangles, with deletions)") {
    val events = TestUtil.randomEvents(nVertices = 20, steps = 1200, seed = 21, deleteBias = 0.35)
    assert(wrsTrace(Triangle, events, m = 25, seed = 4) == Seq(
      (26.00790513833992, 25, 2, 23), (50.11462450592886, 23, 2, 21), (62.49011857707508, 24, 2, 22),
      (134.23320158102769, 25, 2, 23), (38.6324110671937, 20, 2, 18), (48.30434782608694, 18, 2, 16)))
  }

  test("WRS golden trace (wedges, with deletions)") {
    val events = TestUtil.randomEvents(nVertices = 25, steps = 1200, seed = 22, deleteBias = 0.35)
    assert(wrsTrace(Wedge, events, m = 30, seed = 6) == Seq(
      (136.62962962962962, 29, 3, 26), (670.3703703703704, 30, 3, 27), (760.2592592592582, 30, 3, 27),
      (925.8148148148144, 30, 3, 27), (1150.4074074074074, 26, 3, 23), (1272.888888888885, 28, 3, 25)))
  }

  // Fixed-seed checkpoints of (estimate, sampleSize) for the two counters
  // that only count the instances an edge closes, plus the exact wedge
  // truth on the same stream. Recorded from the enumerating wedge count; the
  // degree closed form must reproduce them exactly.
  private val wedgeEvents = TestUtil.randomEvents(nVertices = 25, steps = 1200, seed = 23, deleteBias = 0.35)

  private def countTrace(alg: SubgraphCounter): Seq[(Double, Int)] =
    wedgeEvents.indices.flatMap { i =>
      alg.process(wedgeEvents(i))
      if ((i + 1) % 200 == 0) Some((alg.estimate, alg.sampleSize)) else None
    }

  test("Triest golden trace (wedges, with deletions)") {
    assert(countTrace(new Triest(Wedge, 30, 8)) == Seq(
      (72.97471264367816, 30), (67.29655172413794, 23), (370.17931034482757, 29),
      (566.0689655172414, 28), (850.0965517241381, 28), (1272.3563218390802, 30)))
  }

  test("ThinkD golden trace (wedges, with deletions)") {
    assert(countTrace(new ThinkD(Wedge, 30, 9)) == Seq(
      (74.7, 30), (102.06666666666673, 24), (402.70000000000016, 27),
      (590.0333333333332, 29), (947.5666666666665, 30), (1471.7000000000016, 30)))
  }

  test("exact wedge truth series (with deletions)") {
    val exact = new ExactDynamicCounter(Wedge)
    val series = wedgeEvents.indices.flatMap { i =>
      exact.process(wedgeEvents(i))
      if ((i + 1) % 200 == 0) Some(exact.count) else None
    }
    assert(series == Seq(73L, 75L, 340L, 585L, 861L, 1308L))
  }

  test("WRS rejects degenerate lambda") {
    intercept[IllegalArgumentException](new WRS(Triangle, 10, 1, lambda = 0.0))
    intercept[IllegalArgumentException](new WRS(Triangle, 10, 1, lambda = 1.0))
  }

  test("deterministic given the seed") {
    val events = TestUtil.randomEvents(nVertices = 20, steps = 800, seed = 12, deleteBias = 0.3)
    def est(mk: Long => SubgraphCounter, seed: Long): Double = {
      val a = mk(seed); events.foreach(a.process); a.estimate
    }
    Seq[(Long => SubgraphCounter)](
      s => new Triest(Triangle, 30, s),
      s => new ThinkD(Triangle, 30, s),
      s => new WRS(Triangle, 30, s),
    ).foreach { mk => assert(est(mk, 5) == est(mk, 5)) }
  }
}
