package perfbench

import scala.collection.mutable
import repro.core.{EdgeEvent, GPSA, Pattern, SubgraphCounter, WSD}
import repro.exact.ExactDynamicCounter
import repro.harness.TrialRunner

/** Tally of output checks. A failed check does not stop the run; it makes
  * the result's `correct` false and is reported on standard error. */
final class Checks {
  private var evaluatedV = 0L
  private val failures = mutable.ArrayBuffer.empty[String]
  private var failedV = 0L

  def evaluated: Long = evaluatedV
  def failed: Long = failedV
  def firstFailures: Seq[String] = failures.toSeq

  /** Record one check; returns `ok`. */
  def apply(ok: Boolean, what: => String): Boolean = {
    evaluatedV += 1
    if (!ok) {
      failedV += 1
      if (failures.length < 20) failures += what
    }
    ok
  }

  def finite(name: String, x: Double): Boolean =
    apply(!x.isNaN && !x.isInfinite, s"$name is not finite: $x")
}

/** Static subgraph counts of an edge set, written apart from
  * `repro.core.Pattern` and `repro.exact`: wedges as `Σ C(deg, 2)`,
  * triangles and 4-cliques by intersecting sorted forward-neighbour lists
  * (each instance counted once, at its smallest edge in id order).
  *
  * Edges are canonical keys `(min << 32) | max` of distinct vertices.
  */
object Recount {

  def key(u: Int, v: Int): Long = {
    val a = math.min(u, v).toLong; val b = math.max(u, v).toLong
    (a << 32) | b
  }

  def count(patternName: String, edges: Array[Long]): Long = patternName match {
    case "wedge"    => wedges(edges)
    case "triangle" => triangles(edges)
    case "4-clique" => fourCliques(edges)
    case p          => throw new IllegalArgumentException(s"no recount for pattern $p")
  }

  def wedges(edges: Array[Long]): Long = {
    val deg = mutable.HashMap.empty[Int, Long]
    edges.foreach { k =>
      val a = (k >>> 32).toInt; val b = k.toInt
      deg(a) = deg.getOrElse(a, 0L) + 1
      deg(b) = deg.getOrElse(b, 0L) + 1
    }
    deg.valuesIterator.map(d => d * (d - 1) / 2).sum
  }

  /** Forward adjacency: for each vertex `a`, its neighbours `b > a`,
    * sorted, as a range of one sorted key array. */
  private final class Forward(edges: Array[Long]) {
    val sorted: Array[Long] = edges.clone()
    java.util.Arrays.sort(sorted)
    private val start = mutable.HashMap.empty[Int, Int]
    private val end   = mutable.HashMap.empty[Int, Int]
    locally {
      var i = 0
      while (i < sorted.length) {
        val a = (sorted(i) >>> 32).toInt
        if (i == 0 || (sorted(i - 1) >>> 32).toInt != a) start(a) = i
        end(a) = i + 1
        i += 1
      }
    }
    def from(a: Int): Int = start.getOrElse(a, 0)
    def until(a: Int): Int = end.getOrElse(a, 0)
    def nbr(i: Int): Int = sorted(i).toInt
    def has(a: Int, b: Int): Boolean =
      java.util.Arrays.binarySearch(sorted, from(a), until(a), key(a, b)) >= 0

    /** Sorted common forward neighbours of `a` and `b` into `out`. */
    def common(a: Int, b: Int, out: mutable.ArrayBuffer[Int]): Unit = {
      out.clear()
      var i = from(a); val ie = until(a)
      var j = from(b); val je = until(b)
      while (i < ie && j < je) {
        val x = nbr(i); val y = nbr(j)
        if (x == y) { out += x; i += 1; j += 1 }
        else if (x < y) i += 1
        else j += 1
      }
    }
  }

  def triangles(edges: Array[Long]): Long = {
    val f = new Forward(edges)
    val buf = mutable.ArrayBuffer.empty[Int]
    var c = 0L
    f.sorted.foreach { k => f.common((k >>> 32).toInt, k.toInt, buf); c += buf.length }
    c
  }

  def fourCliques(edges: Array[Long]): Long = {
    val f = new Forward(edges)
    val buf = mutable.ArrayBuffer.empty[Int]
    var c = 0L
    f.sorted.foreach { k =>
      f.common((k >>> 32).toInt, k.toInt, buf)
      var i = 0
      while (i < buf.length) {
        var j = i + 1
        while (j < buf.length) { if (f.has(buf(i), buf(j))) c += 1; j += 1 }
        i += 1
      }
    }
    c
  }
}

/** Per-event invariants of one sampler over one pass of a stream:
  *
  *  - the sample never exceeds the budget `M`;
  *  - the estimate is finite;
  *  - until the reservoir first fills, every inclusion probability is 1,
  *    so the estimate equals the exact count (within 1e-9 relative);
  *  - WSD keeps `τ_q ≤ τ_p` and neither threshold decreases; GPS-A's
  *    `r_{M+1}` never decreases.
  *
  * `exact(i)` is the exact count just after event `i`.
  */
final class SamplerChecks(alg: String, m: Int, exact: Array[Long], checks: Checks) {
  private var filled = false
  private var lastTauP, lastTauQ, lastRM1 = 0.0
  private var preFillEvents = 0L

  /** Events checked against the exact count before the reservoir filled. */
  def exactEvents: Long = preFillEvents

  def estimate(i: Int, est: Double, sampleSize: Int): Unit = {
    checks(sampleSize <= m, s"$alg: sampleSize $sampleSize > M=$m after event $i")
    checks(!est.isNaN && !est.isInfinite, s"$alg: estimate $est after event $i")
    if (!filled) {
      val want = exact(i).toDouble
      checks(math.abs(est - want) <= 1e-9 * math.max(1.0, math.abs(want)),
        s"$alg: estimate $est != exact $want after event $i, before the reservoir filled")
      preFillEvents += 1
      filled = sampleSize >= m
    }
  }

  def thresholds(i: Int, tauP: Double, tauQ: Double): Unit = {
    checks(tauQ <= tauP, s"$alg: tauQ $tauQ > tauP $tauP after event $i")
    checks(tauP >= lastTauP, s"$alg: tauP fell from $lastTauP to $tauP at event $i")
    checks(tauQ >= lastTauQ, s"$alg: tauQ fell from $lastTauQ to $tauQ at event $i")
    lastTauP = tauP; lastTauQ = tauQ
  }

  def rM1(i: Int, z: Double): Unit = {
    checks(z >= lastRM1, s"$alg: rM1 fell from $lastRM1 to $z at event $i")
    lastRM1 = z
  }
}

/** The check passes the benchmark makes before it times anything. */
object Verify {

  /** Recount `live` and compare with the exact counter's `count`. */
  def recount(checks: Checks, patternName: String, live: Array[Long], count: Long, at: Int): Unit = {
    val want = Recount.count(patternName, live)
    checks(want == count, s"exact count $count != recount $want after event $at")
  }

  /** Exact counter over `stream`, with the benchmark's own live edge set
    * recounted at eight evenly spaced points (the last is the end), and the
    * harness's truth series compared with it. Returns the exact count after
    * every event. */
  def exactPass(pattern: Pattern, stream: Array[EdgeEvent], truth: TrialRunner.TruthSeries,
                checks: Checks): Array[Long] = {
    val n = stream.length
    val exact = new ExactDynamicCounter(pattern)
    val live = mutable.HashSet.empty[Long]
    val series = new Array[Long](n)
    val recountAt = (1 to 8).map(j => (n.toLong * j / 8).toInt).toSet
    var i = 0
    while (i < n) {
      val ev = stream(i)
      exact.process(ev)
      val k = Recount.key(ev.u, ev.v)
      if (ev.insert) checks(live.add(k), s"event $i inserts a live edge")
      else checks(live.remove(k), s"event $i deletes an absent edge")
      series(i) = exact.count
      if (recountAt(i + 1)) recount(checks, pattern.name, live.toArray, exact.count, i)
      i += 1
    }
    checks(exact.edgeCount == live.size, s"exact counter holds ${exact.edgeCount} edges, stream leaves ${live.size}")
    truth.positions.zip(truth.values).foreach { case (p, v) =>
      checks(series(p - 1) == v, s"truth series $v != exact ${series(p - 1)} at event $p")
    }
    series
  }

  /** One pass of sampler `c` with [[SamplerChecks]] after every event;
    * `exact(i)` is the exact count after event `i`. */
  def samplerPass(alg: String, c: SubgraphCounter, stream: Array[EdgeEvent], m: Int,
                  exact: Array[Long], checks: Checks): Unit = {
    val sc = new SamplerChecks(alg, m, exact, checks)
    var i = 0
    while (i < stream.length) {
      c.process(stream(i))
      sc.estimate(i, c.estimate, c.sampleSize)
      c match {
        case w: WSD  => sc.thresholds(i, w.tauP, w.tauQ)
        case g: GPSA => sc.rM1(i, g.rM1)
        case _       =>
      }
      i += 1
    }
    checks(sc.exactEvents > 0, s"$alg: no event before the reservoir filled")
  }
}
