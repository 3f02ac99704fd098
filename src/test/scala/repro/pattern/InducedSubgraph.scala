package repro.pattern

/** The subgraph of a pattern induced by a vertex subset: the tests' way to
  * check covers and sub-patterns.
  */
object InducedSubgraph {

  /** `p` restricted to `vs`: its regular and anti edges and labels among `vs`. */
  def apply(p: Pattern, vs: Set[Int]): Pattern =
    Pattern(
      p.vertices.filter(vs),
      p.edges.filter { case (u, v) => vs(u) && vs(v) },
      p.antiEdges.filter { case (u, v) => vs(u) && vs(v) },
      p.labels.filter { case (u, _) => vs(u) }
    )
}
