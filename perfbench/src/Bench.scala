package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicReference
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core.{EdgeEvent, GPSA, HeuristicWeight, SubgraphCounter, WSD}
import repro.exact.ExactDynamicCounter
import repro.graphgen.Datasets
import repro.harness.{Algorithms, BenchConfig, PolicyStore, Tables, TrialRunner}
import repro.rl.{Training, TrainedPolicy}

/** One run of one workload. Phases, in a fixed order:
  *
  *  1. set-up, repeated `setupReps` times (graph, streams, exact truth);
  *  2. WSD-L's policy from the harness's cache;
  *  3. check passes: every counter once over the timed stream, with the
  *     output checks after every event;
  *  4. MARE passes on the reference stream, and retained memory;
  *  5. the first block of timed passes;
  *  6. Spark start, then an untimed and `tableReps` timed row through
  *     `Tables.evaluateDataset`, then the second timed block;
  *  7. streaming micro-batches on the reference stream, then the third
  *     timed block;
  *  8. with `trace`, instrumented passes for the per-layer metrics.
  *
  * Timed passes go round-robin, in time slices, over eight lanes in a fixed
  * order: the exact counter, the six samplers and WSD-L's training. Each
  * lane cycles its seeds until it has run `seconds / 8`, a third of that in
  * each block. Spreading the blocks over the run lets every lane see the
  * machine at the same mix of moments.
  */
final class Bench(wl: Workload, seeds: Seeds, seconds: Double, trace: Boolean, workDir: File) {
  import Bench._

  val checks = new Checks
  /** Operations of the run's fixed schedule: the policy load, check
    * passes, MARE and memory passes, table rows and micro-batches. Timed
    * and traced repetitions are not counted, so the count depends neither
    * on the run's length nor on `trace`. */
  var attempted = 0L
  /** Micro-batches whose rows differ from the sequential sampler's. */
  var failed = 0L
  val endToEnd = mutable.LinkedHashMap.empty[String, (Double, String)]
  val perLayer = mutable.LinkedHashMap.empty[String, (Double, String)]

  private val started = System.nanoTime()
  private def phase(what: String): Unit =
    Console.err.println(f"[perfbench] ${(System.nanoTime() - started) / 1e9}%6.1f s  $what")

  private val samplers = Seq("WSD-L", "WSD-H", "GPS-A", "Triest", "ThinkD", "WRS")
  private def metricName(alg: String): String = alg.toLowerCase.replace('-', '_')

  private final case class Inputs(
      edges: Array[Long],
      stream: Array[EdgeEvent],
      truth: TrialRunner.TruthSeries,
      accStream: Array[EdgeEvent],
      accTruth: TrialRunner.TruthSeries,
      trainStreams: Seq[Array[EdgeEvent]],
      trainM: Int,
  )

  def run(): Unit = {
    // ---- 1. set-up ---------------------------------------------------------
    val graphS, streamS, truthS, setupS = mutable.ArrayBuffer.empty[Double]
    var in: Inputs = null
    (0 until setupReps).foreach { _ =>
      val t0 = System.nanoTime()
      val edges = Datasets.test(wl.category, wl.edges)
      val t1 = System.nanoTime()
      val acc = wl.scenario.build(edges, Seeds.accuracyStream)
      val stream = if (wl.seededStream) wl.scenario.build(edges, seeds.stream) else acc
      val t2 = System.nanoTime()
      val accTruth = TrialRunner.truth(acc, wl.pattern, BenchConfig.checkpoints)
      val truth = if (wl.seededStream) TrialRunner.truth(stream, wl.pattern, BenchConfig.checkpoints) else accTruth
      val t3 = System.nanoTime()
      val trainGraph = Datasets.train(wl.category, wl.trainEdges)
      val trainStreams = (0 until Workload.trainStreams).map { j =>
        wl.scenario.build(trainGraph, if (wl.seededStream) seeds.trainStream(j) else Seeds.fixedTrainStream(j))
      }
      val t4 = System.nanoTime()
      graphS += (t1 - t0) / 1e9; streamS += (t2 - t1) / 1e9; truthS += (t3 - t2) / 1e9
      setupS += (t4 - t0) / 1e9
      val next = Inputs(edges, stream, truth, acc, accTruth, trainStreams, BenchConfig.mFor(trainGraph.length))
      if (in != null) checks(in.stream.sameElements(next.stream) && in.truth.values.sameElements(next.truth.values),
        "set-up is not deterministic: two builds from one seed differ")
      in = next
    }
    val m = BenchConfig.mFor(in.edges.length)
    val stream = in.stream
    val n = stream.length
    Console.err.println(f"[perfbench] ${wl.name}: ${in.edges.length} edges, $n events " +
      f"(${stream.count(!_.insert)} deletions), M=$m, set-up ${median(setupS.toSeq)}%.3f s")

    // ---- 2. WSD-L's policy --------------------------------------------------
    phase("policy")
    // The harness's cached policy: its training inputs do not depend on
    // `--seed`, so WSD-L's sample, and its MARE, repeat on one commit.
    attempted += 1
    val policy = PolicyStore.trained(wl.category, wl.scenario, wl.pattern).policy
    def make(alg: String, seed: Long): SubgraphCounter = Algorithms.make(alg, wl.pattern, m, seed, policy)

    // ---- 3. check passes ----------------------------------------------------
    phase("check passes")
    attempted += 1
    val exactSeries = Verify.exactPass(wl.pattern, stream, in.truth, checks)
    val checkEstimates = samplers.map { alg =>
      val c = make(alg, seeds.trial(0))
      attempted += 1
      Verify.samplerPass(alg, c, stream, m, exactSeries, checks)
      alg -> c.estimate
    }.toMap

    // ---- 4. MARE on the reference stream; retained memory -------------------
    phase("MARE and memory")
    // Retained heap is the smallest of `memoryTrials` measurements: now and
    // then a full collection leaves a few MB that one sampler did not hold.
    val holder = new AtomicReference[SubgraphCounter]()
    val wsdHBytes = mutable.ArrayBuffer.empty[Double]
    Seq("WSD-L", "WSD-H").foreach { alg =>
      val mares = (0 until wl.mareTrials).map { i =>
        attempted += 1
        val r = consumeInto(holder, make(alg, Seeds.accuracyTrial(i)), in.accStream, in.accTruth)
        if (alg == "WSD-H" && i < memoryTrials) wsdHBytes += retainedBytesPerEdge(holder)
        holder.set(null)
        r.mare
      }
      endToEnd(s"${metricName(alg)}.mare_pct") = (100 * mares.sum / mares.length, "%")
    }
    endToEnd("wsd_h.bytes_per_edge") = (wsdHBytes.min, "B")
    val wrsBytes = (0 until memoryTrials).map { i =>
      attempted += 1
      consumeInto(holder, make("WRS", Seeds.accuracyTrial(i)), in.accStream, in.accTruth)
      retainedBytesPerEdge(holder)
    }
    endToEnd("wrs.bytes_per_edge") = (wrsBytes.min, "B")

    // ---- 5. timed passes ----------------------------------------------------
    final class Lane(val name: String, val pass: Int => Unit) {
      var secs = 0.0; var passes = 0
      val each = mutable.ArrayBuffer.empty[Double]
    }
    val counters = new Lane("exact", _ => {
      val exact = new ExactDynamicCounter(wl.pattern)
      var i = 0
      while (i < n) { exact.process(stream(i)); i += 1 }
      checks(exact.count == exactSeries(n - 1), s"timed exact pass ended at ${exact.count}")
    }) +: samplers.map { alg =>
      new Lane(metricName(alg), i => {
        val r = TrialRunner.run(stream, make(alg, seeds.trial(i)), in.truth)
        checks.finite(s"$alg MARE", r.mare)
      })
    }
    var first: Training.Trained = null
    val training = new Lane("train", _ => {
      val t = Training.trainPolicy(in.trainStreams, wl.pattern, in.trainM, seeds.train,
        gradSteps = BenchConfig.gradSteps)
      if (first == null) first = t
      else checks(samePolicy(t.policy, first.policy), "training is not deterministic: two runs from one seed differ")
    })
    val lanes = counters :+ training
    // Each round gives every lane still short of `target` seconds at least
    // `slice` seconds of whole passes, so fast and slow lanes are timed over
    // the same stretch of the run. The check passes and the policy's
    // training have already warmed up the code every lane runs.
    def roundRobin(target: Double): Unit = {
      val spent = mutable.HashMap.empty[Lane, Double].withDefaultValue(0.0)
      while (lanes.exists(spent(_) < target)) {
        lanes.foreach { l =>
          var inRound = 0.0
          while (inRound < slice && spent(l) < target) {
            val t = timed(l.pass(l.passes))._2
            inRound += t; spent(l) += t
            l.secs += t; l.passes += 1; l.each += t
          }
        }
      }
    }
    val blockSeconds = seconds / lanes.length / timedBlocks
    def timedBlock(b: Int): Unit = { phase(s"timed block $b"); roundRobin(blockSeconds) }
    timedBlock(1)

    // ---- 6. Spark, table rows ----------------------------------------------
    phase("Spark start")
    val tmp = new File(workDir, "tmp"); tmp.mkdirs()
    val ts0 = System.nanoTime()
    val spark = startSpark(tmp)
    val sparkS = (System.nanoTime() - ts0) / 1e9
    endToEnd("setup_s") = (median(setupS.toSeq) + sparkS, "s")
    try {
      phase("table rows")
      // The first row is untimed: it runs about a third slower while
      // Spark's job path and the harness compile.
      val rows = (0 to tableReps).map { _ =>
        attempted += 1
        timed(Tables.evaluateDataset(spark, wl.category, wl.pattern, wl.scenario, wl.edges,
          Algorithms.fullyDynamic))
      }
      endToEnd("table_row_s") = (rows.tail.map(_._2).sum / tableReps, "s")
      val row = rows.head._1
      def accuracy(r: Tables.MetricRow) = r.cells.map { case (a, c) => (a, c.are, c.mare) }
      checks(rows.forall(r => accuracy(r._1) == accuracy(row)), "two evaluations of one table row differ")
      checks(row.cells.map(_._1) == Algorithms.fullyDynamic, s"table row columns ${row.cells.map(_._1)}")
      row.cells.foreach { case (alg, c) =>
        checks.finite(s"table $alg ARE", c.are); checks.finite(s"table $alg MARE", c.mare)
        checks(c.seconds > 0, s"table $alg seconds ${c.seconds}")
      }
      timedBlock(2)

      // ---- 7. streaming -----------------------------------------------------
      phase("streaming")
      val sr = StreamBench.run(spark, in.accStream, wl.pattern, m, Seeds.streaming, streamBatch,
        streamWarmup, streamBatches, new File(tmp, "stream-checkpoint").getPath, checks)
      attempted += streamWarmup + streamBatches
      failed += sr.failedBatches
      Console.err.println(s"[perfbench] streaming: ${sr.failedBatches} of ${streamWarmup + streamBatches} " +
        s"batches, ${sr.inexactRows} rows, differ from the sequential sampler")
      endToEnd("stream.batch_p50_ms") = (quantile(sr.latenciesMs, 0.5), "ms")
      Console.err.println(s"[perfbench] batch ms: ${sr.latenciesMs.map(t => f"$t%.1f").mkString(" ")}")
      Console.err.println(s"[perfbench] table row s: ${rows.map(r => f"${r._2}%.3f").mkString(" ")}")
      timedBlock(3)
      counters.foreach { l => endToEnd(s"${l.name}.events_per_s") = (l.passes.toDouble * n / l.secs, "1/s") }
      endToEnd("train_s") = (training.secs / training.passes, "s")
      lanes.foreach(l => Console.err.println(s"[perfbench] pass seconds ${l.name}: ${l.each.map(t => f"$t%.4f").mkString(" ")}"))

      // ---- 8. per-layer metrics ---------------------------------------------
      phase("per-layer")
      if (trace) {
        perLayer("graphgen.graph_s") = (median(graphS.toSeq), "s")
        perLayer("graphgen.stream_s") = (median(streamS.toSeq), "s")
        perLayer("graphgen.events") = (n.toDouble, "count")
        perLayer("graphgen.deletes") = (stream.count(!_.insert).toDouble, "count")
        perLayer("exact.truth_s") = (median(truthS.toSeq), "s")
        perLayer("exact.instances_per_event") = (exactInstancesPerEvent(stream), "count")
        val plainPass = counters.map(l => l.name -> l.secs / l.passes).toMap
        tracedPasses(stream, m, policy, in.truth, plainPass, checkEstimates)
        perLayer("rl.grad_steps") = (first.gradSteps.toDouble, "count")
        perLayer("rl.train_events") = (in.trainStreams.map(_.length).sum.toDouble, "count")
        perLayer("harness.trials") = (BenchConfig.trials.toDouble, "count")
        perLayer("harness.trial_s") = (row.cells.map(_._2.seconds).sum / row.cells.length, "s")
        snapshotTimes(sr.reference, m, Seeds.streaming)
        perLayer("stream.batch_p80_ms") = (quantile(sr.latenciesMs, 0.8), "ms")
      }
    } finally spark.stop()

    phase("done")
    (endToEnd ++ perLayer).foreach { case (k, (v, _)) => checks.finite(k, v) }
  }

  /** Mean instances closed by each event against the full graph, counted
    * with `Pattern.countInstances` on the exact counter's adjacency. */
  private def exactInstancesPerEvent(stream: Array[EdgeEvent]): Double = {
    val exact = new ExactDynamicCounter(wl.pattern)
    var total = 0L
    stream.foreach { ev => total += wl.pattern.countInstances(exact.adj, ev.u, ev.v); exact.process(ev) }
    total.toDouble / stream.length
  }

  /** Instrumented passes of WSD-L, WSD-H and GPS-A with the first timed
    * seed: weight-function counters, WSD's case mix, GPS-A's tagged slots,
    * WSD-H's key-hash spread, and the slowdown against the plain passes. */
  private def tracedPasses(
      stream: Array[EdgeEvent],
      m: Int,
      policy: TrainedPolicy,
      truth: TrialRunner.TruthSeries,
      plainPass: Map[String, Double],
      checkEstimates: Map[String, Double],
  ): Unit = {
    val seed = seeds.trial(0)
    var tracedSecs, plainSecs = 0.0
    Seq("WSD-L", "WSD-H", "GPS-A").foreach { alg =>
      val name = metricName(alg)
      val cw = new CountingWeight(if (alg == "WSD-L") policy else HeuristicWeight)
      // Built as Algorithms.make builds them, with the wrapper in place of
      // the weight function; the final estimate is checked against the
      // plain check pass of the same seed.
      val c: SubgraphCounter =
        if (alg == "GPS-A") new GPSA(wl.pattern, m, cw, seed)
        else new WSD(wl.pattern, m, cw, seed, name = alg)
      val mix = c match { case w: WSD => Some(new CaseMix(w)); case _ => None }
      val checkpoints = truth.positions.toSet
      var tagged = 0
      val t0 = System.nanoTime()
      var i = 0
      while (i < stream.length) {
        val ev = stream(i)
        mix.foreach(_.before(ev))
        c.process(ev)
        mix.foreach(_.after(ev))
        i += 1
        c match {
          case g: GPSA if checkpoints(i) => tagged = math.max(tagged, g.taggedCount)
          case _ =>
        }
      }
      tracedSecs += (System.nanoTime() - t0) / 1e9
      plainSecs += plainPass(name)
      checks(c.estimate == checkEstimates(alg),
        s"$alg traced pass ended at ${c.estimate}, plain pass at ${checkEstimates(alg)}")
      perLayer(s"core.$name.instances_per_insert") = (cw.instances / math.max(1L, cw.calls), "count")
      perLayer(s"core.$name.weight_ns") = (cw.nanos.toDouble / math.max(1L, cw.calls), "ns")
      mix.foreach { x =>
        CaseMix.labels.zip(x.counts).foreach { case (l, v) => perLayer(s"core.$name.$l") = (v.toDouble, "count") }
      }
      c match {
        case g: GPSA => perLayer("core.gps_a.tagged_slots") = (tagged.toDouble, "count")
        case w: WSD if alg == "WSD-H" =>
          val keys = w.toState.keys
          perLayer("core.reservoir.keys_per_hash") =
            (keys.length.toDouble / math.max(1, keys.map(_.##).distinct.length), "count")
        case _ =>
      }
    }
    perLayer("trace.slowdown") = (tracedSecs / plainSecs, "x")
  }

  /** Time `WSD.toState` and `WSD.restoreState` on the streaming operator's
    * state, as the operator round-trips it once per micro-batch. */
  private def snapshotTimes(w: WSD, m: Int, seed: Long): Unit = {
    val snap, restore = mutable.ArrayBuffer.empty[Double]
    (0 until 5).foreach { _ =>
      val t0 = System.nanoTime()
      val s = w.toState
      val t1 = System.nanoTime()
      val fresh = new WSD(wl.pattern, m, HeuristicWeight, seed)
      val t2 = System.nanoTime()
      fresh.restoreState(s)
      val t3 = System.nanoTime()
      checks(fresh.estimate == w.estimate && fresh.sampleSize == w.sampleSize, "restoreState changed the state")
      snap += (t1 - t0) / 1e6; restore += (t3 - t2) / 1e6
    }
    perLayer("spark.snapshot_ms") = (median(snap.toSeq), "ms")
    perLayer("spark.restore_ms") = (median(restore.toSeq), "ms")
    perLayer("spark.state_keys") = (w.toState.keys.length.toDouble, "count")
  }

  private def startSpark(tmp: File): SparkSession = {
    val cores = math.min(BenchConfig.trials, Runtime.getRuntime.availableProcessors)
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", tmp.getPath)
      // the streaming operator keys every event to one group
      .config("spark.sql.shuffle.partitions", "1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // first job: class loading and task set-up belong to starting Spark
    s.sparkContext.parallelize(0 until cores, cores).map(_ + 1).count()
    s
  }
}

object Bench {
  val setupReps = 2
  val slice = 0.2
  val timedBlocks = 3
  val memoryTrials = 2
  val tableReps = 1
  val streamBatch = 1000
  val streamWarmup = 14
  val streamBatches = 16

  /** Result of `body` and its wall time in seconds. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  /** Run `c` over `stream`, keeping it reachable only through `holder`. */
  private def consumeInto(
      holder: AtomicReference[SubgraphCounter],
      c: SubgraphCounter,
      stream: Array[EdgeEvent],
      truth: TrialRunner.TruthSeries,
  ): TrialRunner.TrialResult = {
    holder.set(c)
    TrialRunner.run(stream, c, truth)
  }

  /** Heap in use after full collections, repeated until one frees
    * nothing more: objects behind finalizers and cleaners die a collection
    * or two after the one that finds them. */
  private def usedAfterGc(): Long = {
    def collect(): Long = { System.gc(); ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed }
    var prev = Long.MaxValue
    var cur = collect()
    var rounds = 0
    while (cur < prev && rounds < 8) {
      prev = cur
      System.runFinalization()
      Thread.sleep(10)
      cur = collect()
      rounds += 1
    }
    cur
  }

  /** Heap retained by the sampler in `holder`, per sampled edge. */
  private def retainedBytesPerEdge(holder: AtomicReference[SubgraphCounter]): Double = {
    val size = holder.get.sampleSize
    val withIt = usedAfterGc()
    holder.set(null)
    val without = usedAfterGc()
    (withIt - without).toDouble / math.max(1, size)
  }

  private def samePolicy(a: TrainedPolicy, b: TrainedPolicy): Boolean =
    a.w.sameElements(b.w) && a.b == b.b && a.featMean.sameElements(b.featMean) &&
      a.featStd.sameElements(b.featStd)
}
