package repro.core

import scala.collection.mutable

/** Binary min-heap of sampled edges by rank, supporting delete-by-key.
  *
  * WSD, GPS and GPS-A all need a min-priority queue keyed by rank *and*
  * O(log n) removal of an arbitrary edge (fully dynamic deletions), which
  * `java.util.PriorityQueue` cannot do without an O(n) scan. Each entry
  * carries the edge's payload and its own heap position, so the key map is
  * the samplers' only index of their sampled edges and sifting never touches
  * it: the map sees exactly one add per insert and one remove per removal.
  */
final class IndexedMinHeap(initialCapacity: Int = 16) extends Serializable {
  import IndexedMinHeap.Entry

  private var heap = new Array[Entry](math.max(initialCapacity, 4))
  private val pos  = mutable.HashMap.empty[Long, Entry]
  private var n    = 0

  def size: Int = n
  def isEmpty: Boolean = n == 0
  def contains(key: Long): Boolean = pos.contains(key)

  /** The entry of `key`; throws if absent. */
  def apply(key: Long): Entry = pos(key)
  def get(key: Long): Option[Entry] = pos.get(key)

  /** Rank of the minimum element; throws on empty heap. */
  def minRank: Double = { require(n > 0, "minRank on empty heap"); heap(0).rank }

  /** Insert an edge; its key must not be present. */
  def insert(key: Long, rank: Double, w: Double, time: Long): Unit = {
    require(!pos.contains(key), s"duplicate heap key $key")
    if (n == heap.length) heap = java.util.Arrays.copyOf(heap, n * 2)
    val e = new Entry(key, rank, w, time)
    pos(key) = e
    place(e, n)
    n += 1
    siftUp(n - 1)
  }

  /** Remove and return the minimum entry. */
  def popMin(): Entry = {
    require(n > 0, "popMin on empty heap")
    val e = heap(0)
    removeAt(0)
    e
  }

  /** Remove an arbitrary key; returns false if it was absent. */
  def removeKey(key: Long): Boolean =
    pos.get(key) match {
      case Some(e) => removeAt(e.index); true
      case None    => false
    }

  /** Every sampled edge, in the key map's iteration order. */
  def values: Iterator[Entry] = pos.valuesIterator

  private def place(e: Entry, i: Int): Unit = { heap(i) = e; e.index = i }

  private def removeAt(i: Int): Unit = {
    pos.remove(heap(i).key)
    n -= 1
    if (i != n) {
      place(heap(n), i)
      siftDown(i); siftUp(i)
    }
    heap(n) = null
  }

  private def swap(i: Int, j: Int): Unit = {
    val e = heap(i); place(heap(j), i); place(e, j)
  }

  @annotation.tailrec
  private def siftUp(i: Int): Unit =
    if (i > 0) {
      val p = (i - 1) >> 1
      if (heap(i).rank < heap(p).rank) { swap(i, p); siftUp(p) }
    }

  @annotation.tailrec
  private def siftDown(i: Int): Unit = {
    val l = 2 * i + 1; val r = l + 1
    var m = i
    if (l < n && heap(l).rank < heap(m).rank) m = l
    if (r < n && heap(r).rank < heap(m).rank) m = r
    if (m != i) { swap(i, m); siftDown(m) }
  }
}

object IndexedMinHeap {

  /** A sampled edge: its rank, weight and arrival time, and GPS-A's DEL tag. */
  final class Entry(val key: Long, val rank: Double, val w: Double, val time: Long) extends Serializable {
    var tagged = false
    private[IndexedMinHeap] var index = 0
  }
}
