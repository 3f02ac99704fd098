package repro.pattern

/** A graph pattern — the first-class construct of Peregrine's programming
  * model (§3).
  *
  * Vertices are small positive Ints. Edges are undirected and stored
  * normalized as (min, max). Two edge kinds exist:
  *
  *   - regular edges (`edges`): adjacency that must be PRESENT in a match;
  *   - anti-edges (`antiEdges`): adjacency that must be ABSENT (§3.1.1).
  *
  * An '''anti-vertex''' (§3.1.2) is not a separate construct: per the paper,
  * it is a vertex whose incident edges are all anti-edges ("a vertex with at
  * least one regular edge is a regular vertex"). Anti-vertices are never
  * matched to data vertices; they assert the absence of a common neighbor of
  * their (regular) anti-neighbors.
  *
  * Labels are partial: a vertex absent from `labels` is a wildcard, which is
  * how FSM's dynamic label discovery starts (§3.2.1).
  *
  * The class is immutable; the Fig 2 mutators (`addEdge`, `addAntiEdge`,
  * `removeEdge`, `addLabel`) return a new pattern.
  */
final case class Pattern(
    vertices: Vector[Int],
    edges: Set[(Int, Int)],
    antiEdges: Set[(Int, Int)],
    labels: Map[Int, Int]
) {
  import Pattern.norm

  require(vertices == vertices.sorted.distinct, s"vertices must be sorted distinct: $vertices")
  require(edges.forall { case (u, v) => u < v }, "edges must be normalized (u < v)")
  require(antiEdges.forall { case (u, v) => u < v }, "anti-edges must be normalized (u < v)")
  require((edges & antiEdges).isEmpty, "an edge cannot be both regular and anti")
  private val vset = vertices.toSet
  require(edges.forall { case (u, v) => vset(u) && vset(v) }, "edge endpoint not in vertices")
  require(antiEdges.forall { case (u, v) => vset(u) && vset(v) }, "anti-edge endpoint not in vertices")
  require(labels.keySet.subsetOf(vset), "label on unknown vertex")

  /** Number of vertices (regular + anti). */
  def numVertices: Int = vertices.size

  /** Regular-adjacency neighbors of `u` (Fig 2 `getNeighbors`). */
  def getNeighbors(u: Int): Set[Int] =
    edges.collect { case (a, b) if a == u => b; case (a, b) if b == u => a }

  /** Anti-adjacent vertices of `u`. */
  def antiNeighbors(u: Int): Set[Int] =
    antiEdges.collect { case (a, b) if a == u => b; case (a, b) if b == u => a }

  /** Label of `u`, None when the vertex is an unlabeled wildcard (Fig 2 `getLabel`). */
  def getLabel(u: Int): Option[Int] = labels.get(u)

  /** Whether `u` and `v` share a regular edge (Fig 2 `areConnected`). */
  def areConnected(u: Int, v: Int): Boolean = edges.contains(norm(u, v))

  /** Whether `u` and `v` share an anti-edge. */
  def areAntiAdjacent(u: Int, v: Int): Boolean = antiEdges.contains(norm(u, v))

  /** Fig 2 `addEdge`; also materializes missing endpoints. */
  def addEdge(u: Int, v: Int): Pattern = {
    require(u != v, "self loops not allowed")
    withVertices(u, v).copy(edges = edges + norm(u, v))
  }

  /** Fig 2 `addAntiEdge`; also materializes missing endpoints. */
  def addAntiEdge(u: Int, v: Int): Pattern = {
    require(u != v, "self loops not allowed")
    withVertices(u, v).copy(antiEdges = antiEdges + norm(u, v))
  }

  /** Fig 2 `removeEdge` — removes a regular or anti edge (vertices remain). */
  def removeEdge(u: Int, v: Int): Pattern =
    copy(edges = edges - norm(u, v), antiEdges = antiEdges - norm(u, v))

  /** Fig 2 `addLabel`. */
  def addLabel(u: Int, label: Int): Pattern = {
    require(vset(u), s"unknown vertex $u")
    copy(labels = labels + (u -> label))
  }

  private def withVertices(us: Int*): Pattern = {
    val missing = us.filterNot(vset)
    if (missing.isEmpty) this
    else copy(vertices = (vertices ++ missing).distinct.sorted)
  }

  /** A vertex is an anti-vertex iff it has no regular edge (§3.1.2). */
  def isAntiVertex(u: Int): Boolean = getNeighbors(u).isEmpty && antiNeighbors(u).nonEmpty

  /** Vertices that get matched to data vertices. */
  def regularVertices: Vector[Int] = vertices.filterNot(isAntiVertex)

  /** Vertices asserting neighborhood absence; never matched. */
  def antiVertices: Vector[Int] = vertices.filter(isAntiVertex)

  /** Regular degree of `u`. */
  def degree(u: Int): Int = getNeighbors(u).size

  /** Connectivity over the union of regular and anti edges. */
  def isConnected: Boolean = connectedOver(v => getNeighbors(v) ++ antiNeighbors(v), vset)

  /** Connectivity of the regular part (regular vertices over regular edges) —
    * required by the matching engine, which traverses only regular edges.
    */
  def regularPartConnected: Boolean = connectedOver(getNeighbors, regularVertices.toSet)

  /** Whether `vs` is connected by the edges `adj` gives between its members. */
  def connectedOver(adj: Int => Set[Int], vs: Set[Int]): Boolean =
    vs.isEmpty || {
      val seen = collection.mutable.Set(vs.head)
      val stack = collection.mutable.Stack(vs.head)
      while (stack.nonEmpty) {
        val v = stack.pop()
        for (w <- adj(v) if vs(w) && seen.add(w)) stack.push(w)
      }
      seen.size == vs.size
    }

  /** Remap vertex ids through `f` (must be injective on `vertices`). */
  def remap(f: Int => Int): Pattern = {
    val m = vertices.map(v => v -> f(v)).toMap
    require(m.values.toSet.size == vertices.size, "remap must be injective")
    Pattern(
      vertices.map(m).sorted,
      edges.map { case (u, v) => norm(m(u), m(v)) },
      antiEdges.map { case (u, v) => norm(m(u), m(v)) },
      labels.map { case (u, l) => m(u) -> l }
    )
  }

  /** True when every regular vertex carries a label (FSM termination of label discovery). */
  def fullyLabeled: Boolean = regularVertices.forall(labels.contains)

  override def toString: String = {
    val e = edges.toSeq.sorted.map { case (u, v) => s"$u-$v" }.mkString(",")
    val a = antiEdges.toSeq.sorted.map { case (u, v) => s"$u!$v" }.mkString(",")
    val l = labels.toSeq.sorted.map { case (u, x) => s"$u:$x" }.mkString(",")
    s"Pattern(v=${vertices.mkString(" ")};e=$e;a=$a;l=$l)"
  }
}

object Pattern {
  /** Normalize an undirected endpoint pair. */
  def norm(u: Int, v: Int): (Int, Int) = if (u < v) (u, v) else (v, u)

  /** Pattern from regular edges only; vertices are the endpoints. */
  def fromEdges(es: (Int, Int)*): Pattern = {
    val norm = es.map { case (u, v) => Pattern.norm(u, v) }.toSet
    val vs = norm.flatMap { case (u, v) => Seq(u, v) }.toVector.sorted
    Pattern(vs, norm, Set.empty, Map.empty)
  }

  /** Single-vertex pattern. */
  def singleton(v: Int = 1): Pattern = Pattern(Vector(v), Set.empty, Set.empty, Map.empty)
}
