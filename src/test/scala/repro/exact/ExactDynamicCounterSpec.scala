package repro.exact

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{Edge, EdgeEvent, Pattern, Triangle, Wedge, FourClique}
import repro.graphgen.Generators
import scala.collection.mutable

class ExactDynamicCounterSpec extends AnyFunSuite {

  private def brute(pattern: Pattern, edges: Iterable[(Int, Int)]): Long = pattern match {
    case Wedge      => TestUtil.bruteWedges(edges)
    case Triangle   => TestUtil.bruteTriangles(edges)
    case FourClique => TestUtil.bruteFourCliques(edges)
  }

  test("triangle count on a clique build-up and tear-down") {
    val cnt = new ExactDynamicCounter(Triangle)
    val edges = TestUtil.clique(5)
    edges.foreach { case (u, v) => cnt.process(EdgeEvent(insert = true, u, v)) }
    assert(cnt.count == 10) // C(5,3)
    cnt.process(EdgeEvent(insert = false, 0, 1))
    assert(cnt.count == 7) // triangles through edge (0,1): 3
    cnt.process(EdgeEvent(insert = true, 0, 1))
    assert(cnt.count == 10)
  }

  test("static helper matches brute force") {
    val graphs: Seq[(String, Seq[(Int, Int)])] = Seq(
      "clique"  -> TestUtil.clique(6),
      "er"      -> TestUtil.keysToPairs(Generators.erdosRenyi(n = 40, m = 150, seed = 1)),
      "ff"      -> TestUtil.keysToPairs(Generators.forestFire(n = 60, p = 0.45, seed = 2)),
      "planted" -> TestUtil.keysToPairs(Generators.plantedPartition(4, 12, 0.35, 20, seed = 3)),
    )
    for ((label, edges) <- graphs; pattern <- Pattern.all) {
      val cnt = new ExactDynamicCounter(pattern)
      edges.foreach { case (u, v) => cnt.process(EdgeEvent(insert = true, u, v)) }
      assert(cnt.count == brute(pattern, edges), s"$label/${pattern.name}")
    }
  }

  // differential test: after every event the dynamic count equals a full
  // brute-force recount of the live edge set
  for (pattern <- Pattern.all; seed <- 1 to 5)
    test(s"${pattern.name} stays exact under random dynamics, seed=$seed") {
      val events = TestUtil.randomEvents(nVertices = 12, steps = 400, seed = seed)
      val cnt = new ExactDynamicCounter(pattern)
      val live = mutable.HashSet.empty[Long]
      var checkEvery = 0
      events.foreach { ev =>
        cnt.process(ev)
        if (ev.insert) live += ev.key else live -= ev.key
        checkEvery += 1
        if (checkEvery % 20 == 0) {
          val pairs = live.toSeq.map(k => (Edge.u(k), Edge.v(k)))
          assert(cnt.count == brute(pattern, pairs), s"diverged after $checkEvery events")
        }
      }
      assert(cnt.edgeCount == live.size)
    }

  test("empty graph counts zero") {
    Pattern.all.foreach { p => assert(new ExactDynamicCounter(p).count == 0) }
  }
}
