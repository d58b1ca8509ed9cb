package perfbench

import java.util.concurrent.atomic.AtomicReference
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.core.{EdgeEvent, HeuristicWeight, Pattern, WSD}
import repro.spark.StreamingWSD
import repro.spark.StreamingWSD.{Est, Ev}

/** Closed-loop micro-batch latency of `StreamingWSD.estimates`.
  *
  * One thread adds a batch of `batchSize` events to a `MemoryStream` and
  * waits in `processAllAvailable` before adding the next, so exactly one
  * batch is in flight. Latency runs from `addData` until the batch has
  * completed. The sink keeps only the latest batch's rows, so its cost does
  * not grow with the run. After each batch (outside the timed region) the
  * rows are compared with a sequential `WSD` of the same seed.
  *
  * The operator documents bit-for-bit equality with the sequential `WSD`,
  * so a batch with any row that differs in any bit is a failed batch.
  * Today some batches fail: restoring the snapshot rebuilds the sampled
  * adjacency in another order, so instances are summed in another order and
  * estimates differ in the last bits. Beyond that, a row whose sequence
  * number or sample size differs, or whose estimate is off by more than
  * 1e-9 relative, fails the run's checks.
  */
object StreamBench {

  /** @param failedBatches batches with a row that is not bit-for-bit equal
    *                      to the sequential sampler's
    * @param inexactRows   such rows, over all batches */
  final case class Result(latenciesMs: Seq[Double], reference: WSD, failedBatches: Long, inexactRows: Long)

  def run(
      spark: SparkSession,
      events: Array[EdgeEvent],
      pattern: Pattern,
      m: Int,
      seed: Long,
      batchSize: Int,
      warmup: Int,
      batches: Int,
      checkpointDir: String,
      checks: Checks,
  ): Result = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    require(events.length >= (warmup + batches) * batchSize,
      s"stream of ${events.length} events is shorter than ${warmup + batches} batches of $batchSize")

    val input = MemoryStream[Ev]
    val latest = new AtomicReference[Array[Est]](Array.empty)
    val sink: (Dataset[Est], Long) => Unit = (ds, _) => latest.set(ds.collect())
    val query = StreamingWSD.estimates(input.toDS(), pattern, m, HeuristicWeight, seed)
      .writeStream
      .outputMode("append")
      .option("checkpointLocation", checkpointDir)
      .foreachBatch(sink)
      .start()
    val reference = new WSD(pattern, m, HeuristicWeight, seed)
    val lat = Seq.newBuilder[Double]
    var failedBatches, inexact = 0L
    try {
      var b = 0
      while (b < warmup + batches) {
        val base = b * batchSize
        val evs = (base until base + batchSize).map { i =>
          val e = events(i); Ev(i.toLong, e.insert, e.u, e.v)
        }
        latest.set(Array.empty)
        val t0 = System.nanoTime()
        input.addData(evs)
        query.processAllAvailable()
        val ms = (System.nanoTime() - t0) / 1e6
        if (b >= warmup) lat += ms

        val got = latest.get.sortBy(_.seq)
        checks(got.length == batchSize, s"streaming batch $b: ${got.length} rows for $batchSize events")
        var i, differ = 0
        while (i < batchSize) {
          reference.process(events(base + i))
          val want = Est((base + i).toLong, reference.estimate, reference.sampleSize)
          if (i >= got.length || !compareRow(checks, got(i), want)) differ += 1
          i += 1
        }
        if (differ > 0) failedBatches += 1
        inexact += differ
        b += 1
      }
    } finally {
      query.stop()
    }
    Result(lat.result(), reference, failedBatches, inexact)
  }

  /** Whether an operator row equals the sequential sampler's bit for bit.
    * A row that differs by more than the estimate's last bits also fails
    * `checks`. */
  def compareRow(checks: Checks, got: Est, want: Est): Boolean = {
    checks(got.seq == want.seq && got.sampleSize == want.sampleSize &&
      math.abs(got.estimate - want.estimate) <= 1e-9 * math.max(1.0, math.abs(want.estimate)),
      s"streaming row $got != sequential $want")
    got == want
  }
}
