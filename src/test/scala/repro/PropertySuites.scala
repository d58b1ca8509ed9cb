package repro

import org.scalacheck.{Gen, Prop, Properties}
import repro.core._
import repro.exact.ExactDynamicCounter
import repro.graphgen.{Generators, StreamGen}
import scala.collection.mutable

/** ScalaCheck property suites over the stream/sampler substrate. */
object StreamGenProps extends Properties("StreamGen") {

  private val graphGen: Gen[Array[Long]] = for {
    n <- Gen.chooseNum(10, 60)
    m <- Gen.chooseNum(5, 100)
    seed <- Gen.chooseNum(1L, 100000L)
  } yield Generators.erdosRenyi(n, math.min(m, n * (n - 1) / 2), seed)

  private def feasible(events: Array[EdgeEvent]): Boolean = {
    val live = mutable.HashSet.empty[Long]
    events.forall(ev => if (ev.insert) live.add(ev.key) else live.remove(ev.key))
  }

  property("light streams are always feasible") =
    Prop.forAll(graphGen, Gen.chooseNum(0.0, 0.9), Gen.chooseNum(1L, 9999L)) { (g, beta, seed) =>
      feasible(StreamGen.light(g, beta, seed))
    }

  property("massive streams are always feasible") =
    Prop.forAll(graphGen, Gen.chooseNum(0.0, 1.0), Gen.chooseNum(1L, 9999L)) { (g, beta, seed) =>
      feasible(StreamGen.massive(g, alpha = 0.05, betaM = beta, seed = seed))
    }
}

/** WSD invariants under arbitrary feasible dynamics. */
object WSDProps extends Properties("WSD") {

  private val streamGen: Gen[(Array[EdgeEvent], Long)] = for {
    seed <- Gen.chooseNum(1L, 100000L)
    steps <- Gen.chooseNum(50, 400)
  } yield (TestUtil.randomEvents(nVertices = 20, steps = steps, seed = seed), seed)

  property("reservoir bounded, thresholds ordered, estimate finite") =
    Prop.forAll(streamGen, Gen.chooseNum(5, 40)) { case ((events, seed), m) =>
      val w = new WSD(Triangle, math.max(m, Triangle.size), HeuristicWeight, seed)
      events.foreach(w.process)
      w.sampleSize <= math.max(m, Triangle.size) &&
        w.tauQ <= w.tauP + 1e-12 &&
        !w.estimate.isNaN && !w.estimate.isInfinite
    }

  // The identity that lets WSD and GPS-A share one threshold rule:
  // τ_q ← max(τ_q, ·) never undoes WSD's τ_q = τ_p step.
  property("thresholds never decrease; τ_q ≤ τ_p; GPS-A's r_{M+1} never decreases") =
    Prop.forAll(streamGen, Gen.chooseNum(5, 40)) { case ((events, seed), m) =>
      val w = new WSD(Triangle, math.max(m, Triangle.size), HeuristicWeight, seed)
      val g = new GPSA(Triangle, math.max(m, Triangle.size), HeuristicWeight, seed)
      var (tauP, tauQ, rM1) = (0.0, 0.0, 0.0)
      events.forall { ev =>
        w.process(ev); g.process(ev)
        val ok = w.tauP >= tauP && w.tauQ >= tauQ && w.tauQ <= w.tauP && g.rM1 >= rM1
        tauP = w.tauP; tauQ = w.tauQ; rM1 = g.rM1
        ok
      }
    }

  property("huge M gives the exact count") =
    Prop.forAll(streamGen) { case (events, seed) =>
      val w = new WSD(Wedge, 100000, HeuristicWeight, seed)
      val e = new ExactDynamicCounter(Wedge)
      events.foreach { ev => w.process(ev); e.process(ev) }
      math.abs(w.estimate - e.count) < 1e-6
    }

  property("snapshot round trip preserves the estimate") =
    Prop.forAll(streamGen, Gen.chooseNum(0.1, 0.9)) { case ((events, seed), frac) =>
      val cut = math.max(1, (events.length * frac).toInt)
      val full = new WSD(Triangle, 30, HeuristicWeight, seed)
      events.foreach(full.process)
      val a = new WSD(Triangle, 30, HeuristicWeight, seed)
      events.take(cut).foreach(a.process)
      val b = new WSD(Triangle, 30, HeuristicWeight, seed)
      b.restoreState(a.toState)
      events.drop(cut).foreach(b.process)
      b.estimate == full.estimate && b.sampleSize == full.sampleSize
    }
}

/** Exact counter agrees with a brute-force recount (generated cases). */
object ExactCounterProps extends Properties("ExactDynamicCounter") {

  property("triangle count equals brute force at the end") =
    Prop.forAll(Gen.chooseNum(1L, 100000L), Gen.chooseNum(20, 200)) { (seed, steps) =>
      val events = TestUtil.randomEvents(nVertices = 10, steps = steps, seed = seed)
      val c = new ExactDynamicCounter(Triangle)
      val live = mutable.HashSet.empty[Long]
      events.foreach { ev =>
        c.process(ev)
        if (ev.insert) live += ev.key else live -= ev.key
      }
      val pairs = live.toSeq.map(k => (Edge.u(k), Edge.v(k)))
      c.count == TestUtil.bruteTriangles(pairs)
    }
}

/** A pattern's count of the instances an edge closes equals its enumeration. */
object PatternProps extends Properties("Pattern") {

  private val graphGen: Gen[(Adjacency, Int)] = for {
    n <- Gen.chooseNum(2, 20)
    m <- Gen.chooseNum(0, 80)
    seed <- Gen.chooseNum(1L, 100000L)
  } yield {
    val adj = new Adjacency
    Generators.erdosRenyi(n, math.min(m, n * (n - 1) / 2), seed).foreach(k => adj.add(Edge.u(k), Edge.v(k)))
    (adj, n)
  }

  property("countInstances equals the foreachInstance visit count") =
    Prop.forAll(graphGen) { case (adj, n) =>
      Pattern.all.forall { p =>
        (0 to n).forall(u => (0 to n).forall { v =>
          var visits = 0L
          p.foreachInstance(adj, u, v)(_ => visits += 1)
          p.countInstances(adj, u, v) == visits
        })
      }
    }
}
