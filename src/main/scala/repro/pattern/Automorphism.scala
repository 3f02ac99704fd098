package repro.pattern

/** Automorphisms of patterns, found by search.
  *
  * An automorphism is a permutation of the pattern's vertices that preserves
  * regular edges, anti-edges, and labels. Because anti-edges are a distinct
  * edge kind, a regular vertex can never map to an anti-vertex — this is
  * exactly the §4.3 requirement that the symmetry-breaking algorithm "treats
  * the anti-edges of an anti-vertex differently than regular edges when
  * computing automorphisms".
  *
  * Unlabeled (wildcard) vertices form their own label class: a wildcard can
  * only map to a wildcard.
  *
  * `extending` is a pruned backtracking search in the style of nauty/Traces
  * (McKay & Piperno 2014): it grows a partial map one vertex at a time and
  * only tries images that agree in label, kind, regular degree and
  * anti-degree, and whose regular and anti adjacency to the vertices already
  * mapped matches. Symmetry breaking asks it for one automorphism at a time,
  * so planning never builds the group (a 14-clique has 14! automorphisms).
  */
object Automorphism {

  /** All automorphisms of `p`, as vertex→vertex maps (identity included). */
  def all(p: Pattern): Seq[Map[Int, Int]] = extending(p, Map.empty).toVector

  /** The automorphisms of `p` that agree with `partial`, lazily. A partial
    * map that no automorphism extends yields an empty iterator.
    */
  def extending(p: Pattern, partial: Map[Int, Int]): Iterator[Map[Int, Int]] = {
    require(partial.keySet.subsetOf(p.vertices.toSet), s"partial map $partial leaves $p")
    def signature(v: Int) =
      (p.getLabel(v), p.isAntiVertex(v), p.degree(v), p.antiNeighbors(v).size)
    val sig = p.vertices.map(v => v -> signature(v)).toMap
    def fits(v: Int, w: Int, sigma: Map[Int, Int]): Boolean =
      sig.get(w).contains(sig(v)) && !sigma.valuesIterator.contains(w) &&
        sigma.forall { case (u, x) =>
          p.areConnected(v, u) == p.areConnected(w, x) &&
          p.areAntiAdjacent(v, u) == p.areAntiAdjacent(w, x)
        }

    // The vertices of `partial` first, then each time the one with the most
    // (regular or anti) neighbours already placed, so adjacency prunes early.
    val order = collection.mutable.ArrayBuffer.from(partial.keys)
    while (order.size < p.numVertices)
      order += p.vertices.filterNot(order.contains).maxBy { v =>
        (p.getNeighbors(v) ++ p.antiNeighbors(v)).count(order.contains)
      }

    def search(i: Int, sigma: Map[Int, Int]): Iterator[Map[Int, Int]] =
      if (i == order.size) Iterator.single(sigma)
      else {
        val v = order(i)
        val images = partial.get(v).fold(p.vertices)(Vector(_))
        images.iterator.filter(fits(v, _, sigma)).flatMap(w => search(i + 1, sigma + (v -> w)))
      }
    search(0, Map.empty)
  }

  /** The distinct actions of Aut(p) on `p.regularVertices` as position
    * permutations: σ acts as `a`, `a(j)` the position of σ(regularVertices(j)).
    * Those keeping a per-position sequence `ls` (`a.map(ls) == ls`) form its
    * stabilizer subgroup.
    */
  def regularActions(p: Pattern): Seq[Vector[Int]] = {
    val reg = p.regularVertices
    val pos = reg.zipWithIndex.toMap
    all(p).map(sigma => reg.map(v => pos(sigma(v)))).distinct
  }

  /** Number of distinct actions of Aut(p) on the regular vertices.
    *
    * This is the over-counting multiplicity a system without symmetry
    * breaking incurs (PRG-U / AutoMine model, §6.6): every canonical match
    * is discovered once per distinct regular-vertex action. Automorphisms
    * that only permute anti-vertices do not duplicate matches, hence the
    * restriction to regular vertices.
    */
  def regularMultiplicity(p: Pattern): Int = regularActions(p).size

  /** Orbit id (smallest member) of each position under `group`, a group of
    * position permutations such as `regularActions` or a stabilizer of it.
    */
  def orbitIds(group: Seq[Seq[Int]]): Vector[Int] =
    Vector.tabulate(group.head.size)(j => group.map(_(j)).min)
}
