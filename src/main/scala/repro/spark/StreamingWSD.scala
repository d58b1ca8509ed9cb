package repro.spark

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.streaming.{GroupStateTimeout, OutputMode}
import repro.core.{EdgeEvent, Pattern, WSD, WSDSnapshot, WeightFunction}

/** WSD as a Structured Streaming stateful operator.
  *
  * Edge events arrive as a micro-batched stream with a monotone sequence
  * number; a single keyed group carries the sampler state (a flat,
  * product-encoded `WSDSnapshot`) across batches via
  * `flatMapGroupsWithState`, emitting the running estimate after every
  * event. Given the same seed, every row's sequence number and sample size
  * match the sequential `WSD`'s, and so does the estimate up to its last
  * bits: restoring the snapshot rebuilds the sampled adjacency in snapshot
  * order, so later events may sum their instances in another order
  * (ROADMAP item 2). `StreamingWSDSpec` checks this across batch splits.
  *
  * The one-pass, limited-memory contract of Definition 1 carries over:
  * state size is O(M) regardless of stream length.
  */
object StreamingWSD {

  /** One streamed edge event; `seq` orders events within a micro-batch. */
  final case class Ev(seq: Long, insert: Boolean, u: Int, v: Int)

  /** Running estimate emitted after applying the event `seq`. */
  final case class Est(seq: Long, estimate: Double, sampleSize: Int)

  /** Attach the WSD estimator to a (streaming or batch) dataset of events. */
  def estimates(
      events: Dataset[Ev],
      pattern: Pattern,
      m: Int,
      weightFn: WeightFunction,
      seed: Long,
  ): Dataset[Est] = {
    implicit val stateEnc: Encoder[WSDSnapshot] = Encoders.product[WSDSnapshot]
    implicit val estEnc: Encoder[Est] = Encoders.product[Est]
    implicit val keyEnc: Encoder[Int] = Encoders.scalaInt
    events
      .groupByKey(_ => 0)
      .flatMapGroupsWithState[WSDSnapshot, Est](OutputMode.Append, GroupStateTimeout.NoTimeout) {
        (_, evs, state) =>
          val sampler = new WSD(pattern, m, weightFn, seed)
          if (state.exists) sampler.restoreState(state.get)
          val out = evs.toArray.sortBy(_.seq).map { e =>
            sampler.process(EdgeEvent(e.insert, e.u, e.v))
            Est(e.seq, sampler.estimate, sampler.sampleSize)
          }
          state.update(sampler.toState)
          out.iterator
      }
  }
}
