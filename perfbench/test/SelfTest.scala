package perfbench

import repro.core.{EdgeEvent, FourClique, GPSA, HeuristicWeight, Pattern, SubgraphCounter, Triangle, WSD, Wedge}
import repro.baselines.{ThinkD, Triest, WRS}
import repro.exact.ExactDynamicCounter
import repro.graphgen.{Datasets, Scenario}
import repro.harness.TrialRunner
import repro.spark.StreamingWSD.Est

/** The benchmark's own tests: each output check accepts correct output and
  * rejects a wrong answer. Run with `python3 perfbench/run.py --selftest`;
  * exits non-zero if any case fails. */
object SelfTest {

  private var failures = 0

  private def expect(name: String)(ok: Boolean): Unit = {
    println(s"${if (ok) "ok  " else "FAIL"} $name")
    if (!ok) failures += 1
  }

  /** Brute-force counts over vertex tuples, for the recount's own test. */
  private def brute(p: Pattern, edges: Array[Long]): Long = {
    val es = edges.toSet
    val vs = edges.flatMap(k => Seq((k >>> 32).toInt, k.toInt)).distinct.sorted
    def e(a: Int, b: Int) = es.contains(Recount.key(a, b))
    p match {
      case Wedge => vs.map(v => vs.count(w => w != v && e(v, w)).toLong).map(d => d * (d - 1) / 2).sum
      case Triangle =>
        (for (i <- vs.indices; j <- i + 1 until vs.length; k <- j + 1 until vs.length
              if e(vs(i), vs(j)) && e(vs(i), vs(k)) && e(vs(j), vs(k))) yield 1L).sum
      case FourClique =>
        (for (i <- vs.indices; j <- i + 1 until vs.length; k <- j + 1 until vs.length; l <- k + 1 until vs.length
              if e(vs(i), vs(j)) && e(vs(i), vs(k)) && e(vs(j), vs(k)) &&
                e(vs(i), vs(l)) && e(vs(j), vs(l)) && e(vs(k), vs(l))) yield 1L).sum
    }
  }

  /** A counter that reports one instance more than `inner`. */
  private final class OffByOne(inner: SubgraphCounter) extends SubgraphCounter {
    val name = inner.name
    def process(ev: EdgeEvent): Unit = inner.process(ev)
    def estimate: Double = inner.estimate + 1
    def sampleSize: Int = inner.sampleSize
  }

  /** A counter that claims one edge more than `inner` holds. */
  private final class OverBudget(inner: SubgraphCounter) extends SubgraphCounter {
    val name = inner.name
    def process(ev: EdgeEvent): Unit = inner.process(ev)
    def estimate: Double = inner.estimate
    def sampleSize: Int = inner.sampleSize + 1
  }

  def main(args: Array[String]): Unit = {
    // a small graph with many wedges, triangles and 4-cliques
    val edges = Datasets.test("com", 600)
    val stream = Scenario.Light(0.2).build(edges, seed = 5)
    val m = 60

    Seq(Wedge, Triangle, FourClique).foreach { p =>
      expect(s"recount equals brute force (${p.name})")(Recount.count(p.name, edges) == brute(p, edges))
    }

    Seq(Wedge, Triangle, FourClique).foreach { p =>
      val truth = TrialRunner.truth(stream, p, 10)
      val ok = new Checks
      val exact = Verify.exactPass(p, stream, truth, ok)
      expect(s"exact pass accepts the exact counter (${p.name})")(ok.failed == 0 && ok.evaluated > 0)

      // the exact counter sees every edge but one that lies in an instance;
      // the recount of the full set is then one edge too many
      val full = Recount.count(p.name, edges)
      val e = edges.indices.find(i => Recount.count(p.name, edges.patch(i, Nil, 1)) != full).get
      val cnt = new ExactDynamicCounter(p)
      edges.patch(e, Nil, 1).foreach(k => cnt.process(EdgeEvent(insert = true, (k >>> 32).toInt, k.toInt)))
      val good, bad = new Checks
      Verify.recount(good, p.name, edges.patch(e, Nil, 1), cnt.count, 0)
      Verify.recount(bad, p.name, edges, cnt.count, 0)
      expect(s"recount accepts the true edge set (${p.name})")(good.failed == 0)
      expect(s"recount fed one extra edge is rejected (${p.name})")(bad.failed == 1)

      val samplers: Seq[() => SubgraphCounter] = Seq(
        () => new WSD(p, m, HeuristicWeight, 3), () => new GPSA(p, m, HeuristicWeight, 3),
        () => new Triest(p, m, 3), () => new ThinkD(p, m, 3), () => new WRS(p, m, 3))
      samplers.foreach { mk =>
        val c = new Checks
        val name = mk().name
        Verify.samplerPass(name, mk(), stream, m, exact, c)
        expect(s"$name passes every per-event check (${p.name})")(c.failed == 0)
        val off = new Checks
        Verify.samplerPass(name, new OffByOne(mk()), stream, m, exact, off)
        expect(s"$name off by one instance is rejected (${p.name})")(off.failed > 0)
        val over = new Checks
        Verify.samplerPass(name, new OverBudget(mk()), stream, m, exact, over)
        expect(s"$name sample over M is rejected (${p.name})")(over.failed > 0)
      }
    }

    // thresholds
    val exact = Array.fill(4)(0L)
    def thr(vals: Seq[(Double, Double)]): Long = {
      val c = new Checks
      val sc = new SamplerChecks("WSD", 10, exact, c)
      vals.zipWithIndex.foreach { case ((p, q), i) => sc.thresholds(i, p, q) }
      c.failed
    }
    expect("rising thresholds with tauQ <= tauP are accepted")(thr(Seq(0.0 -> 0.0, 2.0 -> 1.0, 3.0 -> 3.0)) == 0)
    expect("tauQ above tauP is rejected")(thr(Seq(1.0 -> 2.0)) == 1)
    expect("a falling tauP is rejected")(thr(Seq(2.0 -> 1.0, 1.5 -> 1.0)) == 1)
    expect("a falling tauQ is rejected")(thr(Seq(2.0 -> 1.0, 2.0 -> 0.5)) == 1)
    val z = new Checks
    val zc = new SamplerChecks("GPS-A", 10, exact, z)
    zc.rM1(0, 1.0); zc.rM1(1, 2.0); zc.rM1(2, 1.5)
    expect("a falling rM1 is rejected")(z.failed == 1)
    val nan = new Checks
    new SamplerChecks("x", 10, exact, nan).estimate(0, Double.NaN, 1)
    expect("a NaN estimate is rejected")(nan.failed > 0)
    val inf = new Checks
    expect("an infinite metric is rejected")(!inf.finite("m", Double.PositiveInfinity) && inf.failed == 1)

    // streaming rows
    val want = Est(7, 1234.5, 9)
    val rows = new Checks
    val exactRow = StreamBench.compareRow(rows, want, want)
    val ulp = StreamBench.compareRow(rows, want.copy(estimate = math.nextUp(1234.5)), want)
    expect("identical streaming rows are accepted as bit-exact")(exactRow && rows.failed == 0)
    expect("a last-bit difference fails the row's batch, not the run")(!ulp && rows.failed == 0)
    val wrong = Seq(want.copy(estimate = 1234.5 * (1 + 1e-6)), want.copy(sampleSize = 10), want.copy(seq = 8))
      .map(StreamBench.compareRow(rows, _, want))
    expect("a wrong streaming estimate, sample size or sequence is rejected")(
      !wrong.exists(identity) && rows.failed == 3)

    println(if (failures == 0) "all self-tests passed" else s"$failures self-test(s) failed")
    System.out.flush()
    System.exit(if (failures == 0) 0 else 1)
  }
}
