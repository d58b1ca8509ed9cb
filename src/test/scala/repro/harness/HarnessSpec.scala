package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkSpec, TestUtil}
import repro.core.{EdgeEvent, HeuristicWeight, Triangle, Wedge}
import repro.exact.ExactDynamicCounter
import repro.graphgen.{Datasets, Scenario}
import repro.rl.TrainedPolicy

class TrialRunnerSpec extends AnyFunSuite {

  private val events = TestUtil.randomEvents(nVertices = 20, steps = 500, seed = 1, deleteBias = 0.25)

  test("truth series matches an exact replay at every checkpoint") {
    val ts = TrialRunner.truth(events, Triangle, nCheckpoints = 10)
    assert(ts.positions.last == events.length)
    val exact = new ExactDynamicCounter(Triangle)
    var ck = 0
    events.zipWithIndex.foreach { case (ev, i) =>
      exact.process(ev)
      if (ck < ts.positions.length && i + 1 == ts.positions(ck)) {
        assert(ts.values(ck) == exact.count)
        ck += 1
      }
    }
    assert(ck == ts.positions.length)
  }

  test("a perfect counter scores zero ARE and MARE") {
    val ts = TrialRunner.truth(events, Triangle, nCheckpoints = 20)
    val perfect = new repro.core.SubgraphCounter {
      val inner = new ExactDynamicCounter(Triangle)
      val name = "exact"
      def process(ev: EdgeEvent): Unit = inner.process(ev)
      def estimate: Double = inner.count.toDouble
      def sampleSize: Int = 0
    }
    val r = TrialRunner.run(events, perfect, ts)
    assert(r.are == 0.0 && r.mare == 0.0)
    assert(r.seconds > 0)
  }

  test("a constant-zero counter scores ARE = 1") {
    val ts = TrialRunner.truth(events, Triangle, nCheckpoints = 20)
    val zero = new repro.core.SubgraphCounter {
      val name = "zero"
      def process(ev: EdgeEvent): Unit = ()
      def estimate: Double = 0.0
      def sampleSize: Int = 0
    }
    val r = TrialRunner.run(events, zero, ts)
    assert(ts.finalTruth > 0)
    assert(math.abs(r.are - 1.0) < 1e-12)
    assert(r.mare > 0.9 && r.mare <= 1.0)
  }

  test("empty stream rejected") {
    intercept[IllegalArgumentException](TrialRunner.truth(Array.empty[EdgeEvent], Triangle, 5))
  }
}

class AlgorithmsSpec extends AnyFunSuite {

  test("factory builds every fully-dynamic column") {
    val policy = TrainedPolicy(Array.fill(6)(0.1), 0.0, Array.fill(6)(0.0), Array.fill(6)(1.0))
    Algorithms.fullyDynamic.foreach { alg =>
      val c = Algorithms.make(alg, Triangle, m = 50, seed = 1, policy = policy)
      assert(c.name == alg, s"$alg -> ${c.name}")
    }
  }

  test("factory builds every insertion-only column") {
    val policy = TrainedPolicy(Array.fill(6)(0.1), 0.0, Array.fill(6)(0.0), Array.fill(6)(1.0))
    Algorithms.insertionOnly.foreach { alg =>
      val c = Algorithms.make(alg, Triangle, m = 50, seed = 1, policy = policy)
      assert(c.name == alg)
    }
  }

  test("WSD-L without a policy rejected; unknown algorithm rejected") {
    intercept[IllegalArgumentException](Algorithms.make("WSD-L", Triangle, 10, 1))
    intercept[IllegalArgumentException](Algorithms.make("MAGIC", Triangle, 10, 1))
  }

  test("all counters process a dynamic stream within budget") {
    val events = TestUtil.randomEvents(nVertices = 25, steps = 800, seed = 2, deleteBias = 0.3)
    val policy = TrainedPolicy(Array.fill(6)(0.1), 0.0, Array.fill(6)(0.0), Array.fill(6)(1.0))
    Algorithms.fullyDynamic.foreach { alg =>
      val c = Algorithms.make(alg, Triangle, m = 30, seed = 3, policy = policy)
      events.foreach(c.process)
      assert(c.sampleSize <= 30, alg)
      assert(!c.estimate.isNaN && !c.estimate.isInfinite, alg)
    }
  }
}

class BuildStreamSpec extends AnyFunSuite {

  private val edges = repro.graphgen.Generators.erdosRenyi(n = 30, m = 120, seed = 4)

  test("a massive-deletion stream without a deletion is skipped") {
    val scenario = Scenario.Massive(alphaEvents = 1.0)
    // on this graph seeds 22–25 fire no wipe and seed 26 does
    assert((22 to 25).forall(s => scenario.build(edges, s).forall(_.insert)))
    val (stream, _) = Tables.buildStream(edges, scenario, Triangle, baseSeed = 22)
    assert(stream.sameElements(scenario.build(edges, 26)))
  }

  test("massive deletion with no wipe in any seed is rejected") {
    intercept[IllegalArgumentException](
      Tables.buildStream(edges, Scenario.Massive(alphaEvents = 1e-6), Triangle, baseSeed = 1))
  }
}

class BenchConfigSpec extends AnyFunSuite {
  test("mFor scales with edges and has a floor") {
    assert(BenchConfig.mFor(100000) == (100000 * BenchConfig.sampleRatio).toInt)
    assert(BenchConfig.mFor(10) == 32)
  }
  test("defaults are sane") {
    assert(BenchConfig.trials > 0)
    assert(BenchConfig.sampleRatio > 0 && BenchConfig.sampleRatio < 1)
  }
}

class PolicyStoreSpec extends AnyFunSuite {
  test("policies are cached per key") {
    val a = PolicyStore.trained("synthetic", Scenario.Light(0.2), Wedge)
    val b = PolicyStore.trained("synthetic", Scenario.Light(0.2), Wedge)
    assert(a eq b) // second call must hit the cache
    assert(a.policy.w.length == 3 + Wedge.size)
    assert(a.seconds > 0)
  }
}

class ParallelTrialsSpec extends SparkSpec {

  test("fans out the requested number of trials") {
    val rs = ParallelTrials.run(spark, 17)(i => i * i)
    assert(rs.sorted == (0 until 17).map(i => i * i))
  }

  test("zero trials rejected") {
    intercept[IllegalArgumentException](ParallelTrials.run(spark, 0)(identity))
  }

  test("sampler trials run inside Spark tasks and agree with local runs") {
    val events = TestUtil.randomEvents(nVertices = 20, steps = 400, seed = 5, deleteBias = 0.25)
    val ts = TrialRunner.truth(events, Triangle, 10)
    val distributed = ParallelTrials.run(spark, 8) { i =>
      TrialRunner.run(events, new repro.core.WSD(Triangle, 40, HeuristicWeight, seed = 100 + i), ts).are
    }
    val local = (0 until 8).map { i =>
      TrialRunner.run(events, new repro.core.WSD(Triangle, 40, HeuristicWeight, seed = 100 + i), ts).are
    }
    assert(distributed.sorted == local.sorted)
  }

  test("dataset evaluation produces finite metrics for every algorithm") {
    val row = Tables.evaluateDataset(spark, "synthetic", Triangle, Scenario.Light(0.2),
      nEdges = 800, algs = Seq("WSD-H", "GPS-A", "Triest", "ThinkD", "WRS"))
    assert(row.cells.size == 5)
    row.cells.foreach { case (alg, c) =>
      assert(c.are >= 0 && !c.are.isNaN && !c.are.isInfinite, alg)
      assert(c.mare >= 0 && c.seconds > 0, alg)
    }
  }
}
