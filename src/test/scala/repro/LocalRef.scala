package repro

import repro.pattern.Pattern

/** Independent brute-force reference implementation used to validate the
  * engine and the oracle on small graphs. Deliberately shares no code with
  * the planner/engine: plain backtracking over pattern vertices.
  */
object LocalRef {

  final case class Graph(edges: Set[(Long, Long)], labels: Map[Long, Int]) {
    val vertices: Seq[Long] = edges.flatMap { case (u, v) => Seq(u, v) }.toSeq.sorted
    def connected(u: Long, v: Long): Boolean =
      edges.contains((u, v)) || edges.contains((v, u))
    def neighbors(u: Long): Set[Long] =
      edges.collect { case (a, b) if a == u => b; case (a, b) if b == u => a }
  }

  def graph(es: Seq[(Long, Long)], labels: Map[Long, Int] = Map.empty): Graph =
    Graph(es.map { case (u, v) => if (u < v) (u, v) else (v, u) }.toSet, labels)

  /** All edge-induced isomorphism maps of `p` into `g` (constraints included):
    * injective maps from regular pattern vertices, edges present, anti-edges
    * absent, labels matched, anti-vertex constraints satisfied.
    */
  def allIsomorphisms(p: Pattern, g: Graph): Seq[Map[Int, Long]] = {
    val reg = p.regularVertices
    val out = collection.mutable.ArrayBuffer.empty[Map[Int, Long]]
    def rec(i: Int, m: Map[Int, Long]): Unit = {
      if (i == reg.size) {
        if (antiVerticesOk(p, m, g)) out += m
        return
      }
      val u = reg(i)
      for (v <- g.vertices if !m.values.exists(_ == v)) {
        val ok =
          p.getLabel(u).forall(l => g.labels.get(v).contains(l)) &&
          reg.take(i).forall { w =>
            (!p.areConnected(u, w) || g.connected(v, m(w))) &&
            (!p.areAntiAdjacent(u, w) || !g.connected(v, m(w)))
          }
        if (ok) rec(i + 1, m + (u -> v))
      }
    }
    rec(0, Map.empty)
    out.toSeq
  }

  private def antiVerticesOk(p: Pattern, m: Map[Int, Long], g: Graph): Boolean =
    p.antiVertices.forall { av =>
      val ns = p.antiNeighbors(av).toSeq
      val excluded = ns.flatMap(x => p.getNeighbors(x)).distinct.map(m)
      val common = ns
        .map(x => g.neighbors(m(x)))
        .reduce(_ intersect _)
        .diff(excluded.toSet)
      common.isEmpty
    }

  /** Canonical (unique-subgraph) match count: distinct isomorphism images up
    * to pattern automorphism. Two isomorphisms are automorphic images of
    * each other iff one equals the other composed with a pattern
    * automorphism; dividing the isomorphism count by the number of distinct
    * regular-vertex actions of Aut(p) yields the canonical count. The
    * multiplicity comes from the (independently brute-force-tested)
    * Automorphism module.
    */
  def canonicalCount(p: Pattern, g: Graph): Long = canonicalCount(p, allIsomorphisms(p, g))

  /** `canonicalCount` from the already enumerated `allIsomorphisms` of `p`. */
  def canonicalCount(p: Pattern, isos: Seq[Map[Int, Long]]): Long = {
    if (isos.isEmpty) return 0L
    val mult = repro.pattern.Automorphism.regularMultiplicity(p)
    require(isos.size % mult == 0, s"iso count ${isos.size} not divisible by $mult")
    isos.size.toLong / mult
  }

  /** MNI support of a (fully labeled) pattern: min over pattern vertices of
    * the number of distinct data vertices appearing in ANY isomorphism.
    */
  def mniSupport(p: Pattern, g: Graph): Long = {
    val isos = allIsomorphisms(p, g)
    if (isos.isEmpty) return 0L
    p.regularVertices.map(u => isos.map(_(u)).distinct.size.toLong).min
  }
}
