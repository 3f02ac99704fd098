package repro.plan

import repro.pattern.Pattern

/** Minimum connected vertex cover of a pattern (§4.1, Fig 5).
  *
  * The core pattern p_C is the subgraph induced by a minimum subset of
  * regular vertices such that:
  *
  *  - every regular edge has at least one endpoint in the cover;
  *  - every anti-edge between two '''regular''' vertices has at least one
  *    endpoint in the cover (§4.2 — its adjacency list must be bound before
  *    the set difference can run). Anti-edges incident to anti-vertices are
  *    exempt: they are checked after all regular vertices are matched (§4.3)
  *    and "do not impact the core graph";
  *  - the subgraph induced by the cover over regular edges is connected
  *    (so the core can be matched by pure graph traversal).
  *
  * Patterns are tiny, so exhaustive subset search in increasing size order
  * is exact and instantaneous; ties break lexicographically for determinism.
  */
object VertexCover {

  def minConnectedCover(p: Pattern): Set[Int] = {
    val reg = p.regularVertices
    require(reg.nonEmpty, "pattern has no regular vertices")
    val regularEdges = p.edges.filter { case (u, v) => !p.isAntiVertex(u) && !p.isAntiVertex(v) }
    val regularAnti = p.antiEdges.filter { case (u, v) => !p.isAntiVertex(u) && !p.isAntiVertex(v) }
    // Connectivity must be judged over the ORIGINAL pattern's regular edges
    // restricted to the candidate set: an induced-subgraph view would
    // misclassify a cover vertex whose only within-cover incidences are
    // anti-edges as an anti-vertex.
    val candidates = (1 to reg.size).iterator.flatMap { k =>
      reg.combinations(k).filter { combo =>
        val s = combo.toSet
        regularEdges.forall { case (u, v) => s(u) || s(v) } &&
        regularAnti.forall { case (u, v) => s(u) || s(v) } &&
        p.connectedOver(p.getNeighbors, s)
      }
    }
    candidates.nextOption() match {
      case Some(cover) => cover.toSet
      case None        => throw new IllegalStateException(s"no connected cover for $p")
    }
  }
}
