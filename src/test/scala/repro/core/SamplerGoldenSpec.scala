package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Fixed-seed golden traces of WSD, GPS-A and GPS: every 200 events the
  * sampler's public state is compared with `==` against values recorded
  * before the two samplers shared a reservoir core, so any refactor of that
  * core must keep the sample, the thresholds, the RNG consumption and the
  * estimator's summation order bit-identical.
  */
class SamplerGoldenSpec extends AnyFunSuite {

  /** Weight that reads the Eq. (22) temporal features, so traces over it pin
    * the temporal aggregation path. */
  private object TemporalTestWeight extends WeightFunction {
    override val name = "temporal-test"
    override val needsTemporal = true
    override def weight(state: Array[Double]): Double = {
      var s = 1.0 + state(0)
      var i = 3
      while (i < state.length) { s += state(i) / 100.0; i += 1 }
      s
    }
  }

  private def trace[C <: SubgraphCounter, T](c: C, events: Array[EdgeEvent])(f: C => T): Seq[T] =
    events.indices.flatMap { i =>
      c.process(events(i))
      if ((i + 1) % 200 == 0) Some(f(c)) else None
    }

  /** Hashes of the snapshot's keys: sorted (reservoir membership) and as
    * listed (the order `restoreState` rebuilds the adjacency in, on which the
    * streaming operator's summation order depends). */
  private def keyHashes(w: WSD): (Int, Int) = {
    val keys = w.toState.keys
    (java.util.Arrays.hashCode(keys.sorted), java.util.Arrays.hashCode(keys))
  }

  private def wsdTrace(w: WSD, events: Array[EdgeEvent]): Seq[(Double, Int, Double, Double, (Int, Int))] =
    trace(w, events)(w => (w.estimate, w.sampleSize, w.tauP, w.tauQ, keyHashes(w)))

  test("WSD-H golden trace (triangles, with deletions)") {
    val events = TestUtil.randomEvents(nVertices = 20, steps = 1200, seed = 31, deleteBias = 0.35)
    assert(wsdTrace(new WSD(Triangle, 25, HeuristicWeight, seed = 4, name = "WSD-H"), events) == Seq(
      (7.590191694917138, 23, 2.499346624390405, 2.499346624390405, (-905672271, -1291269679)),
      (-0.7794144657857647, 23, 6.135400358897077, 5.950406755167798, (-355852601, -651717079)),
      (41.152285122059844, 21, 8.312131889868299, 7.9996148903443896, (-1023621889, -1037549037)),
      (92.14650862553515, 17, 8.312131889868299, 7.9996148903443896, (-126401777, -1861715887)),
      (65.14766395450198, 13, 8.312131889868299, 7.9996148903443896, (-1631724741, 1191692819)),
      (64.14766395450198, 6, 8.312131889868299, 7.9996148903443896, (1248790928, 1066976588))))
  }

  test("WSD-H golden trace (wedges, with deletions)") {
    val events = TestUtil.randomEvents(nVertices = 25, steps = 1200, seed = 32, deleteBias = 0.35)
    assert(wsdTrace(new WSD(Wedge, 30, HeuristicWeight, seed = 6, name = "WSD-H"), events) == Seq(
      (195.03877305869196, 29, 71.37214304352831, 69.53810077541326, (1723570951, 650477135)),
      (266.96644895205935, 23, 79.627776416136, 79.627776416136, (172427073, 1918355407)),
      (442.95924876712803, 24, 145.65604227684037, 145.65604227684037, (1300222929, 1900591697)),
      (621.7101226874389, 24, 166.1119003015064, 157.71077272443682, (-207161872, -174159658)),
      (819.6749385673295, 25, 166.1119003015064, 157.71077272443682, (1806082916, -1633312528)),
      (1286.6581152257095, 27, 229.91955010702554, 205.080467836596, (-39139543, 1111362797))))
  }

  private val temporalGolden = Map[TemporalAgg, Seq[(Double, Int, Double, Double, (Int, Int), Double)]](
    TemporalAgg.Max -> Seq(
      (14.675651928773426, 22, 3.0890862753311255, 2.4824907302089447, (-1517303397, 684910861), 5.0),
      (33.60240920845339, 25, 9.563812559096696, 7.896346742287488, (398977822, 27921646), 7.0),
      (684.6876217758467, 18, 25.618422642452984, 25.618422642452984, (653075088, -192279606), 4.0),
      (-459.8794348303501, 24, 25.618422642452984, 25.618422642452984, (-611036559, -470792907), 1.0),
      (-506.5575585964802, 17, 29.950636013584383, 29.385980071082017, (301439647, 1105219981), 2.0),
      (-587.7185740702168, 20, 29.950636013584383, 29.385980071082017, (289650472, -651929450), 1.0)),
    TemporalAgg.Avg -> Seq(
      (14.675651928773426, 22, 3.0890862753311255, 2.4824907302089447, (-1517303397, 684910861), 5.0),
      (33.56885358749509, 25, 9.563812559096696, 7.896346742287488, (398977822, 27921646), 7.0),
      (594.6617672682318, 19, 24.288458421549674, 24.130994495794216, (-644836717, -1744790707), 4.0),
      (-417.4094597389692, 25, 26.848439249090077, 25.503327781252356, (-423304597, -688192813), 2.0),
      (-348.0889770082036, 17, 30.195821627815338, 29.958812630268884, (314451126, 862913194), 2.0),
      (-430.8506926603982, 23, 30.195821627815338, 29.958812630268884, (290127007, 881954931), 1.0)))

  for (agg <- Seq(TemporalAgg.Max, TemporalAgg.Avg))
    test(s"WSD golden trace with temporal features (${agg.label}, triangles)") {
      val events = TestUtil.randomEvents(nVertices = 20, steps = 1200, seed = 33, deleteBias = 0.3)
      val w = new WSD(Triangle, 25, TemporalTestWeight, seed = 8, temporalAgg = agg)
      assert(trace(w, events)(w => (w.estimate, w.sampleSize, w.tauP, w.tauQ, keyHashes(w), w.lastState.sum)) ==
        temporalGolden(agg))
    }

  test("GPS-A golden trace (triangles, deleted edges inserted again)") {
    val events = TestUtil.randomEvents(nVertices = 20, steps = 1200, seed = 34, deleteBias = 0.35)
    val deleted = scala.collection.mutable.HashSet.empty[Long]
    val reinserted = events.count { ev =>
      if (ev.insert) deleted.contains(ev.key) else { deleted += ev.key; false }
    }
    assert(reinserted > 0, "the stream must insert some deleted edge again")
    assert(trace(new GPSA(Triangle, 25, HeuristicWeight, seed = 9), events)(
      g => (g.estimate, g.sampleSize, g.rM1, g.taggedCount)) == Seq(
      (20.490232225467967, 25, 5.82952793994414, 14), (59.05537580622425, 25, 10.011940932567475, 18),
      (469.0327272664543, 25, 11.984495343040727, 16), (656.1957842746158, 25, 15.029527979204698, 16),
      (703.6319936429321, 25, 15.029527979204698, 12), (204.42236171922212, 25, 15.029527979204698, 14)))
  }

  test("GPS golden trace (triangles, insertion-only)") {
    val events = TestUtil.randomEvents(nVertices = 40, steps = 600, seed = 35, deleteBias = 0.0)
    assert(trace(GPSA.gps(Triangle, 60, HeuristicWeight, seed = 10), events)(
      g => (g.estimate, g.sampleSize, g.rM1)) == Seq(
      (143.65123612329623, 60, 5.113038475599251), (1190.6182024028594, 60, 13.961144991639994),
      (3266.5920137402322, 60, 23.006091439740956)))
  }
}
