package repro.graph

/** Compressed sparse rows over the dense degree-ranked ids 0..n-1 of a
  * `DataGraph`: the neighbours of `v` are `nbrs(offsets(v) until
  * offsets(v + 1))`, in ascending id order (so also in ascending degree
  * order).
  */
final class Csr(val offsets: Array[Int], val nbrs: Array[Int]) extends Serializable {

  def numVertices: Int = offsets.length - 1

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** A copy of `v`'s sorted adjacency list. */
  def neighbors(v: Int): Array[Int] = java.util.Arrays.copyOfRange(nbrs, offsets(v), offsets(v + 1))

  /** Whether `u` and `v` are adjacent: a binary search in the shorter list. */
  def hasEdge(u: Int, v: Int): Boolean =
    if (degree(u) <= degree(v)) java.util.Arrays.binarySearch(nbrs, offsets(u), offsets(u + 1), v) >= 0
    else java.util.Arrays.binarySearch(nbrs, offsets(v), offsets(v + 1), u) >= 0

  /** First position in `from until to` of `nbrs` holding an id ≥ `x` (a
    * list holds each id once, so a hit is that position).
    */
  def lowerBound(from: Int, to: Int, x: Int): Int = {
    val i = java.util.Arrays.binarySearch(nbrs, from, to, x)
    if (i >= 0) i else -i - 1
  }
}

object Csr {

  /** No label: a vertex the label relation does not mention (and, in a
    * plan, a wildcard pattern vertex).
    */
  val NoLabel: Int = Int.MinValue

  /** CSR of `n` vertices from undirected edges packed as `(src << 32) | dst`. */
  def fromPackedEdges(n: Int, edges: Array[Long]): Csr = {
    val offsets = new Array[Int](n + 1)
    for (e <- edges) {
      offsets((e >>> 32).toInt + 1) += 1
      offsets(e.toInt + 1) += 1
    }
    for (v <- 0 until n) offsets(v + 1) += offsets(v)
    val nbrs = new Array[Int](offsets(n))
    val next = java.util.Arrays.copyOf(offsets, n)
    for (e <- edges) {
      val a = (e >>> 32).toInt
      val b = e.toInt
      nbrs(next(a)) = b; next(a) += 1
      nbrs(next(b)) = a; next(b) += 1
    }
    for (v <- 0 until n) java.util.Arrays.sort(nbrs, offsets(v), offsets(v + 1))
    new Csr(offsets, nbrs)
  }
}
