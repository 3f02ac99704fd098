package repro.plan

import repro.pattern.Pattern

/** The exploration plan of Fig 5: everything the engine needs to find
  * canonical matches of `pattern` by guided traversal, with no per-match
  * canonicality or isomorphism checks.
  *
  * It holds only what the executor reads. The symmetry-breaking partial
  * orders (`SymmetryBreaking.breakSymmetry`) and the core p_C
  * (`VertexCover.minConnectedCover`) are computed by those functions.
  *
  * @param pattern        the full pattern (with anti-edges / anti-vertices)
  * @param orderClosure   transitive closure of the symmetry-breaking
  *                       constraints (a, b) ⇒ m(a) < m(b)
  * @param joinOrder      connectivity-respecting order over the regular
  *                       vertices (core first) used by the dataflow engine —
  *                       see MatchEngine for why a single order under the
  *                       partial-order predicates is equivalent to the union
  *                       over matching orders
  * @param multiplicity   |distinct actions of Aut(pattern) on regular
  *                       vertices| — the over-count factor without symmetry
  *                       breaking (PRG-U)
  */
final case class ExplorationPlan(
    pattern: Pattern,
    orderClosure: Set[(Int, Int)],
    joinOrder: Vector[Int],
    multiplicity: Long
)

/** Computes exploration plans (Fig 5's `generatePlan`). */
object Planner {

  def plan(p: Pattern): ExplorationPlan = {
    require(p.regularVertices.nonEmpty, s"pattern has no regular vertices: $p")
    require(p.regularPartConnected, s"regular part of pattern must be connected: $p")
    for (av <- p.antiVertices)
      require(
        p.antiNeighbors(av).forall(x => !p.isAntiVertex(x)),
        s"anti-vertex $av may only be anti-adjacent to regular vertices: $p"
      )

    val (partialOrders, multiplicity) = SymmetryBreaking.breakSymmetry(p)
    val joinOrder = computeJoinOrder(p, VertexCover.minConnectedCover(p))
    ExplorationPlan(p, SymmetryBreaking.closure(partialOrders), joinOrder, multiplicity)
  }

  /** Connectivity-respecting order: BFS over p_C's regular edges from its
    * smallest vertex, then the non-core vertices in ascending id order
    * (every non-core vertex is anchored by a core neighbor, since the core
    * is a vertex cover).
    */
  private def computeJoinOrder(p: Pattern, core: Set[Int]): Vector[Int] = {
    val coreSorted = p.vertices.filter(core)
    val order = collection.mutable.ArrayBuffer(coreSorted.head)
    val seen = collection.mutable.Set(coreSorted.head)
    while (order.size < coreSorted.size) {
      val next = coreSorted
        .find(v => !seen(v) && p.getNeighbors(v).exists(seen))
        .getOrElse(throw new IllegalStateException(s"core not connected: $core in $p"))
      order += next
      seen += next
    }
    order.toVector ++ p.regularVertices.filterNot(core)
  }
}
