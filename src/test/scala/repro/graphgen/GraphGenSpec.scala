package repro.graphgen

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Edge, EdgeEvent}
import scala.collection.mutable

class GeneratorsSpec extends AnyFunSuite {

  private def checkSimple(edges: Array[Long]): Unit = {
    assert(edges.toSet.size == edges.length, "duplicate edges")
    edges.foreach(k => assert(Edge.u(k) != Edge.v(k), "self loop"))
  }

  for ((label, gen) <- Seq[(String, Long => Array[Long])](
         ("forestFire", s => Generators.forestFire(400, 0.4, s)),
         ("barabasiAlbert", s => Generators.barabasiAlbert(300, 5, s)),
         ("plantedPartition", s => Generators.plantedPartition(8, 20, 0.2, 60, s)),
         ("erdosRenyi", s => Generators.erdosRenyi(200, 800, s)))) {
    test(s"$label produces a simple graph") { checkSimple(gen(1)) }
    test(s"$label is deterministic in the seed") {
      assert(gen(7).toSeq == gen(7).toSeq)
      assert(gen(7).toSeq != gen(8).toSeq)
    }
  }

  test("erdosRenyi produces exactly m edges") {
    assert(Generators.erdosRenyi(100, 500, 3).length == 500)
  }

  test("barabasiAlbert has heavy-tailed degrees") {
    val edges = Generators.barabasiAlbert(2000, 5, 4)
    val deg = mutable.HashMap.empty[Int, Int].withDefaultValue(0)
    edges.foreach { k => deg(Edge.u(k)) += 1; deg(Edge.v(k)) += 1 }
    val max = deg.values.max
    val mean = deg.values.sum.toDouble / deg.size
    assert(max > 8 * mean, s"max=$max mean=$mean — expected a hub")
  }

  test("plantedPartition keeps most edges intra-community") {
    val size = 20
    val edges = Generators.plantedPartition(10, size, 0.25, 50, 5)
    val intra = edges.count(k => Edge.u(k) / size == Edge.v(k) / size)
    assert(intra.toDouble / edges.length > 0.8)
  }

  test("forestFire density grows with burn probability") {
    val sparse = Generators.forestFire(500, 0.2, 6).length
    val dense  = Generators.forestFire(500, 0.55, 6).length
    assert(dense > sparse)
  }
}

class DatasetsSpec extends AnyFunSuite {

  test("all categories produce graphs near the target size") {
    Datasets.categories.foreach { c =>
      val edges = Datasets.test(c, 2000)
      assert(edges.length <= 2000, c)
      assert(edges.length > 600, s"$c too small: ${edges.length}")
    }
  }

  test("train and test differ per category") {
    Datasets.categories.foreach { c =>
      assert(Datasets.train(c, 1000).toSeq != Datasets.test(c, 1000).toSeq, c)
    }
  }

  test("names match the paper's Table I") {
    assert(Datasets.testName("cit") == "cit-PT" && Datasets.trainName("cit") == "cit-HE")
    assert(Datasets.testName("com") == "com-YT" && Datasets.trainName("com") == "com-DB")
    assert(Datasets.testName("soc") == "soc-TW" && Datasets.trainName("soc") == "soc-TX")
    assert(Datasets.testName("web") == "web-GL" && Datasets.trainName("web") == "web-SF")
    intercept[IllegalArgumentException](Datasets.testName("nope"))
  }

  test("stats counts vertices and edges") {
    val (nv, ne) = Datasets.stats(Array(Edge.key(1, 2), Edge.key(2, 3)))
    assert(nv == 3 && ne == 2)
  }
}

class StreamGenSpec extends AnyFunSuite {

  /** Replays events, asserting stream feasibility (Definition 1's setting). */
  private def assertFeasible(events: Array[EdgeEvent]): mutable.HashSet[Long] = {
    val live = mutable.HashSet.empty[Long]
    events.foreach { ev =>
      if (ev.insert) assert(live.add(ev.key), s"double insert of ${ev.key}")
      else assert(live.remove(ev.key), s"deleting absent ${ev.key}")
    }
    live
  }

  private val edges = Generators.erdosRenyi(150, 600, 21)

  test("insertionOnly replays edges in order") {
    val s = StreamGen.insertionOnly(edges)
    assert(s.length == edges.length)
    assert(s.forall(_.insert))
    assert(s.map(_.key).toSeq == edges.toSeq)
    assertFeasible(s)
  }

  for (seed <- 1 to 5)
    test(s"massive deletion stream is feasible, seed=$seed") {
      val s = StreamGen.massive(edges, alpha = 5.0 / edges.length, betaM = 0.8, seed)
      assertFeasible(s)
      assert(s.count(_.insert) == edges.length)
    }

  test("massive deletion with alpha=1 deletes aggressively") {
    val s = StreamGen.massive(edges, alpha = 1.0, betaM = 0.8, seed = 3)
    // alive set stays tiny when 80% is wiped after every insertion, so the
    // deletion count approaches (but may not exceed) the insertion count
    assert(s.count(!_.insert) > edges.length / 2)
    assertFeasible(s)
  }

  for (seed <- 1 to 5)
    test(s"light deletion stream is feasible, seed=$seed") {
      val s = StreamGen.light(edges, betaL = 0.2, seed)
      assertFeasible(s)
      val dels = s.count(!_.insert)
      assert(math.abs(dels.toDouble / edges.length - 0.2) < 0.08, s"deletion rate ${dels.toDouble / edges.length}")
    }

  test("light deletion deletes each edge at most once, after insertion") {
    val s = StreamGen.light(edges, betaL = 0.5, seed = 9)
    val seen = mutable.HashMap.empty[Long, Int].withDefaultValue(0)
    s.foreach { ev => if (!ev.insert) { seen(ev.key) += 1; assert(seen(ev.key) == 1) } }
    assertFeasible(s)
  }

  test("scenario builders match StreamGen behaviour") {
    val m = Scenario.Massive(alphaEvents = 5.0, beta = 0.8).build(edges, 3)
    assertFeasible(m)
    val l = Scenario.Light(beta = 0.2).build(edges, 3)
    assertFeasible(l)
    val i = Scenario.InsertOnly.build(edges, 3)
    assert(i.forall(_.insert))
    assert(Scenario.Massive().label == "massive" && Scenario.Light().label == "light"
      && Scenario.InsertOnly.label == "insert-only")
  }
}
