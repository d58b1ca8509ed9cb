package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

class IndexedMinHeapSpec extends AnyFunSuite {

  private def insert(h: IndexedMinHeap, key: Long, rank: Double): Unit = h.insert(key, rank, w = 1.0, time = 0L)

  test("popMin yields ascending ranks") {
    val h = new IndexedMinHeap()
    val rng = new Rng(1)
    val items = (1 to 500).map(i => (i.toLong, rng.nextDouble()))
    items.foreach { case (k, r) => insert(h, k, r) }
    val popped = Iterator.continually(h.popMin()).take(500).map(_.rank).toSeq
    assert(popped == popped.sorted)
    assert(h.isEmpty)
  }

  test("minRank tracks the smallest element") {
    val h = new IndexedMinHeap()
    insert(h, 10L, 5.0); insert(h, 20L, 1.0); insert(h, 30L, 3.0)
    assert(h.minRank == 1.0)
    h.removeKey(20L)
    assert(h.minRank == 3.0)
  }

  test("removeKey removes exactly that key") {
    val h = new IndexedMinHeap()
    (1 to 100).foreach(i => insert(h, i.toLong, i.toDouble))
    assert(h.removeKey(50L))
    assert(!h.removeKey(50L))
    assert(h.size == 99)
    assert(!h.contains(50L))
    val popped = Iterator.continually(h.popMin()).take(99).map(_.key).toSet
    assert(popped == (1 to 100).map(_.toLong).toSet - 50L)
  }

  test("duplicate insert rejected") {
    val h = new IndexedMinHeap()
    insert(h, 1L, 1.0)
    intercept[IllegalArgumentException](insert(h, 1L, 2.0))
  }

  test("operations on empty heap rejected") {
    val h = new IndexedMinHeap()
    intercept[IllegalArgumentException](h.popMin())
    intercept[IllegalArgumentException](h.minRank)
  }

  // randomized differential test vs a sorted-map reference
  for (seed <- 1 to 10)
    test(s"differential vs reference, seed=$seed") {
      val rng = new Rng(seed)
      val h = new IndexedMinHeap()
      val ref = mutable.HashMap.empty[Long, Double]
      (1 to 2000).foreach { step =>
        rng.nextInt(4) match {
          case 0 | 1 =>
            val k = rng.nextInt(300).toLong
            if (!ref.contains(k)) { val r = rng.nextDouble(); insert(h, k, r); ref(k) = r }
          case 2 =>
            if (ref.nonEmpty) {
              val k = ref.keys.toSeq(rng.nextInt(ref.size))
              assert(h.removeKey(k)); ref.remove(k)
            }
          case 3 =>
            if (ref.nonEmpty) {
              val (mk, mr) = ref.minBy(_._2)
              assert(h.minRank == mr)
              val e = h.popMin()
              assert(e.rank == mr && e.key == mk)
              ref.remove(e.key)
            }
        }
        assert(h.size == ref.size, s"size diverged at step $step")
      }
    }
}
