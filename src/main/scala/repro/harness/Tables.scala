package repro.harness

import java.nio.file.{Files, Paths, StandardOpenOption}
import org.apache.spark.sql.SparkSession
import repro.core.{EdgeEvent, Pattern, SubgraphCounter, TemporalAgg, Triangle}
import repro.graphgen.{Datasets, Scenario}

/** Shared builders for every evaluation table. `TableSpec.all` declares the
  * tables over them, and both `bench/` and `jobs/` run that one registry.
  *
  * Results are printed in the paper's layout and written as TSV under the
  * directory named by `-Drepro.results.dir` (build.sbt points it at the
  * checkout's `bench-results/`) for diffing against the paper in
  * EXPERIMENTS.md.
  */
object Tables {

  /** Aggregated metrics of one (dataset, algorithm) cell: means over trials. */
  final case class Cell(are: Double, mare: Double, seconds: Double)

  /** One dataset row of a metric table. */
  final case class MetricRow(dataset: String, nEvents: Int, cells: Seq[(String, Cell)])

  /** The categories with a real-graph counterpart in the paper's Table I. */
  val testCategories: Seq[String] = Seq("cit", "com", "soc", "web")

  /** Build the evaluation stream + ground truth for one dataset.
    *
    * Under massive deletion, a wipe landing in the stream's last few percent
    * leaves a near-empty graph whose *relative* errors are meaningless at
    * this scale (the paper's graphs keep ≥10⁸ instances at all times). We
    * therefore probe a few deterministic seeds and keep the first whose
    * end-of-stream truth is at least 10% of the peak truth — a documented
    * evaluation-protocol choice, not per-algorithm tuning (all algorithms
    * see the same stream). The number of wipes is random, so a massive
    * stream with no deletion at all is skipped; if every seed gives one,
    * the scenario cannot be evaluated and this throws.
    */
  private[harness] def buildStream(
      edges: Array[Long],
      scenario: Scenario,
      pattern: Pattern,
      baseSeed: Long,
  ): (Array[EdgeEvent], TrialRunner.TruthSeries) = {
    val mustDelete = scenario.isInstanceOf[Scenario.Massive]
    var best: (Array[EdgeEvent], TrialRunner.TruthSeries) = null
    var attempt = 0
    while (attempt < 5) {
      val stream = scenario.build(edges, baseSeed + attempt)
      if (!mustDelete || stream.exists(!_.insert)) {
        val truth = TrialRunner.truth(stream, pattern, BenchConfig.checkpoints)
        if (best == null) best = (stream, truth)
        if (truth.finalTruth >= 0.1 * truth.values.max) return (stream, truth)
      }
      attempt += 1
    }
    require(best != null, s"$scenario gave no stream with a deletion in 5 seeds from $baseSeed")
    best
  }

  /** One evaluation dataset: the test graph of `category` at `nEdges`, its
    * sample budget, and its stream and truth under `scenario`. Built afresh
    * on each call, with no cache, so no stream outlives its table.
    */
  private def dataset(
      category: String,
      scenario: Scenario,
      pattern: Pattern,
      nEdges: Int,
      sampleRatio: Double = BenchConfig.sampleRatio,
  ): (Int, Array[EdgeEvent], TrialRunner.TruthSeries) = {
    val edges = Datasets.test(category, nEdges)
    val (stream, truth) = buildStream(edges, scenario, pattern, 1000L + category.hashCode)
    (BenchConfig.mFor(edges.length, sampleRatio), stream, truth)
  }

  /** Run `BenchConfig.trials` trials of `mk(trial)` on one stream as Spark
    * tasks; the cell is the mean of each metric over the trials. */
  private def trialMean(spark: SparkSession, stream: Array[EdgeEvent], truth: TrialRunner.TruthSeries)(
      mk: Int => SubgraphCounter): Cell = {
    val rs = ParallelTrials.run(spark, BenchConfig.trials)(i => TrialRunner.run(stream, mk(i), truth))
    val n = rs.size.toDouble
    Cell(rs.map(_.are).sum / n, rs.map(_.mare).sum / n, rs.map(_.seconds).sum / n)
  }

  /** Evaluate `algs` on one dataset under `scenario`; mean over trials. */
  def evaluateDataset(
      spark: SparkSession,
      category: String,
      pattern: Pattern,
      scenario: Scenario,
      nEdges: Int,
      algs: Seq[String],
      agg: TemporalAgg = TemporalAgg.Max,
      sampleRatio: Double = BenchConfig.sampleRatio,
  ): MetricRow = {
    val (m, stream, truth) = dataset(category, scenario, pattern, nEdges, sampleRatio)
    val cells = algs.map { alg =>
      val policy =
        if (alg == "WSD-L") PolicyStore.trained(category, scenario, pattern, agg).policy else null
      alg -> trialMean(spark, stream, truth) { i =>
        Algorithms.make(alg, pattern, m, seed = 1_000_003L * (i + 1) + alg.hashCode, policy, agg)
      }
    }
    MetricRow(Datasets.testName(category), stream.length, cells)
  }

  /** Render a metric table in the paper's three-section layout. */
  def renderMetricTable(title: String, rows: Seq[MetricRow]): String = {
    val algs = rows.head.cells.map(_._1)
    val sb = new StringBuilder
    sb ++= s"== $title ==\n"
    def section(label: String, f: Cell => Double, fmt: Double => String): Unit = {
      sb ++= s"-- $label --\n"
      sb ++= ("%-12s".format("Graph") + algs.map(a => "%10s".format(a)).mkString) + "\n"
      rows.foreach { r =>
        sb ++= "%-12s".format(r.dataset)
        r.cells.foreach { case (_, c) => sb ++= "%10s".format(fmt(f(c))) }
        sb ++= "\n"
      }
    }
    section("Absolute Relative Error (%)", _.are * 100, d => f"$d%.3f")
    section("Mean Absolute Relative Error (%)", _.mare * 100, d => f"$d%.3f")
    section("Running Time (s)", _.seconds, d => f"$d%.3f")
    sb.result()
  }

  /** Persist a table as `<name>.tsv` under `repro.results.dir`. */
  def writeTsv(name: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val dir = Paths.get(sys.props.getOrElse("repro.results.dir",
      throw new IllegalStateException("set -Drepro.results.dir to the directory for table TSVs")))
    Files.createDirectories(dir)
    val content = (header +: rows).map(_.mkString("\t")).mkString("", "\n", "\n")
    Files.write(dir.resolve(s"$name.tsv"), content.getBytes("UTF-8"),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }

  /** TSV dump of a metric table. */
  def writeMetricTsv(name: String, rows: Seq[MetricRow]): Unit = {
    val algs = rows.head.cells.map(_._1)
    val header = "graph" +: algs.flatMap(a => Seq(s"$a.are%", s"$a.mare%", s"$a.time_s"))
    writeTsv(name, header, rows.map { r =>
      r.dataset +: r.cells.flatMap { case (_, c) =>
        Seq(f"${c.are * 100}%.4f", f"${c.mare * 100}%.4f", f"${c.seconds}%.4f")
      }
    })
  }

  /** Transferability table (Tables V and XII): rows = test graphs, columns =
    * training sources + WSD-H; ARE of triangle counting.
    */
  def transferTable(spark: SparkSession, scenario: Scenario, nEdges: Int): Seq[(String, Seq[(String, Double)])] = {
    val sources = Datasets.categories
    testCategories.map { testCat =>
      val (m, stream, truth) = dataset(testCat, scenario, Triangle, nEdges)
      val cols = sources.map { src =>
        val policy = PolicyStore.trained(src, scenario, Triangle).policy
        Datasets.trainName(src) -> trialMean(spark, stream, truth) { i =>
          Algorithms.make("WSD-L", Triangle, m, 7L * (i + 1) + src.hashCode, policy)
        }.are
      } :+ ("WSD-H" -> trialMean(spark, stream, truth)(i => Algorithms.make("WSD-H", Triangle, m, 13L * (i + 1))).are)
      Datasets.testName(testCat) -> cols
    }
  }

  /** Ablation (Table XIII): WSD-L(Max) vs WSD-L(Avg) vs WSD-H; triangle ARE. */
  def ablationTable(spark: SparkSession, scenario: Scenario, nEdges: Int): Seq[(String, Seq[(String, Double)])] = {
    testCategories.map { cat =>
      val (m, stream, truth) = dataset(cat, scenario, Triangle, nEdges)
      def are(alg: String, agg: TemporalAgg): Double = {
        val policy =
          if (alg == "WSD-L") PolicyStore.trained(cat, scenario, Triangle, agg).policy else null
        trialMean(spark, stream, truth) { i =>
          Algorithms.make(alg, Triangle, m, 17L * (i + 1) + agg.label.hashCode, policy, agg)
        }.are
      }
      Datasets.testName(cat) -> Seq(
        "WSD-L (Max)" -> are("WSD-L", TemporalAgg.Max),
        "WSD-L (Avg)" -> are("WSD-L", TemporalAgg.Avg),
        "WSD-H" -> are("WSD-H", TemporalAgg.Max),
      )
    }
  }

  /** Render a single-metric (ARE) table with arbitrary columns. */
  def renderAreTable(title: String, rows: Seq[(String, Seq[(String, Double)])]): String = {
    val cols = rows.head._2.map(_._1)
    val sb = new StringBuilder
    sb ++= s"== $title ==\n"
    sb ++= ("%-12s".format("Graph") + cols.map(c => "%12s".format(c)).mkString) + "\n"
    rows.foreach { case (ds, cells) =>
      sb ++= "%-12s".format(ds)
      cells.foreach { case (_, v) => sb ++= "%12s".format(f"${v * 100}%.3f") }
      sb ++= "\n"
    }
    sb.result()
  }
}
