package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.graphgen.Generators

class PatternSpec extends AnyFunSuite {

  private def total(pattern: Pattern, edges: Seq[(Int, Int)]): Long = {
    // insert edges one by one, counting instances each new edge closes —
    // the sum over the insertion sequence is the total static count
    val adj = new Adjacency
    var c = 0L
    edges.foreach { case (u, v) => c += pattern.countInstances(adj, u, v); adj.add(u, v) }
    c
  }

  test("pattern sizes match |H|") {
    assert(Wedge.size == 2 && Triangle.size == 3 && FourClique.size == 6)
  }

  test("byName resolves all patterns") {
    Pattern.all.foreach(p => assert(Pattern.byName(p.name) eq p))
    intercept[IllegalArgumentException](Pattern.byName("pentagon"))
  }

  test("triangle: single triangle graph") {
    val adj = TestUtil.adjacency(Seq((1, 2), (2, 3)))
    assert(Triangle.countInstances(adj, 1, 3) == 1)
    assert(Triangle.countInstances(adj, 1, 4) == 0)
  }

  test("triangle instance reports the two closing edges") {
    val adj = TestUtil.adjacency(Seq((1, 2), (2, 3)))
    var seen: Seq[Long] = Nil
    Triangle.foreachInstance(adj, 1, 3)(o => seen = o.toSeq)
    assert(seen.toSet == Set(Edge.key(1, 2), Edge.key(2, 3)))
  }

  test("wedge: star center") {
    val adj = TestUtil.adjacency(Seq((0, 1), (0, 2), (0, 3)))
    // new edge (0,4): closes a wedge with each existing star edge
    assert(Wedge.countInstances(adj, 0, 4) == 3)
    // new edge (1,2): one wedge through vertex 1's edge, one through 2's
    assert(Wedge.countInstances(adj, 1, 2) == 2)
  }

  test("wedge: enumeration excludes the inserted edge itself when present") {
    val adj = TestUtil.adjacency(Seq((1, 2), (2, 3)))
    // (2,3) is in adj; instances containing it as the *event* edge must not
    // use it as the "other" edge
    var others = List.empty[Long]
    Wedge.foreachInstance(adj, 2, 3)(o => others ::= o(0))
    assert(!others.contains(Edge.key(2, 3)))
    assert(others.toSet == Set(Edge.key(1, 2)))
  }

  test("4-clique: K4 minus one edge") {
    val adj = TestUtil.adjacency(Seq((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
    assert(FourClique.countInstances(adj, 2, 3) == 1)
    var edges: Seq[Long] = Nil
    FourClique.foreachInstance(adj, 2, 3)(o => edges = o.toSeq)
    assert(edges.toSet == Set(
      Edge.key(0, 2), Edge.key(1, 2), Edge.key(0, 3), Edge.key(1, 3), Edge.key(0, 1)))
  }

  test("4-clique: K5 closing edge closes 3 cliques") {
    val all = TestUtil.clique(5)
    val adj = TestUtil.adjacency(all.filterNot(_ == (3, 4)))
    // closing (3,4) completes one 4-clique per third/fourth vertex pair: C(3,2)=3
    assert(FourClique.countInstances(adj, 3, 4) == 3)
  }

  test("insertion-sum equals brute force on cliques") {
    for (n <- 3 to 7) {
      val edges = TestUtil.clique(n)
      assert(total(Wedge, edges) == TestUtil.bruteWedges(edges), s"wedges K$n")
      assert(total(Triangle, edges) == TestUtil.bruteTriangles(edges), s"triangles K$n")
      assert(total(FourClique, edges) == TestUtil.bruteFourCliques(edges), s"4-cliques K$n")
    }
  }

  // randomized cross-check against brute force on small dense graphs
  for (seed <- 1 to 8)
    test(s"insertion-sum equals brute force on random graph, seed=$seed") {
      val keys = Generators.erdosRenyi(n = 14, m = 45, seed = seed)
      val edges = TestUtil.keysToPairs(keys)
      assert(total(Wedge, edges) == TestUtil.bruteWedges(edges))
      assert(total(Triangle, edges) == TestUtil.bruteTriangles(edges))
      assert(total(FourClique, edges) == TestUtil.bruteFourCliques(edges))
    }

  // Wedges are counted from degrees, not enumerated: hold every pattern's
  // count to its enumeration on every vertex pair, with (u,v) present,
  // absent, u == v, and a vertex outside the graph.
  for (seed <- 1 to 4)
    test(s"countInstances equals the number of enumerated instances, seed=$seed") {
      val n = 12
      val adj = TestUtil.adjacency(TestUtil.keysToPairs(Generators.erdosRenyi(n, m = 12 * seed, seed)))
      var present, absent = 0
      for (u <- 0 to n; v <- 0 to n) {
        if (u != v) { if (adj.contains(u, v)) present += 1 else absent += 1 }
        Pattern.all.foreach { p =>
          var visits = 0L
          p.foreachInstance(adj, u, v)(_ => visits += 1)
          assert(p.countInstances(adj, u, v) == visits, s"${p.name} ($u,$v)")
        }
      }
      assert(present > 0 && absent > 0)
    }

  test("countInstances is order-independent for the final count") {
    val keys = Generators.erdosRenyi(n = 12, m = 30, seed = 99)
    val edges = TestUtil.keysToPairs(keys)
    val shuffled = TestUtil.keysToPairs(keys.reverse)
    Pattern.all.foreach { p =>
      assert(total(p, edges) == total(p, shuffled), p.name)
    }
  }
}
