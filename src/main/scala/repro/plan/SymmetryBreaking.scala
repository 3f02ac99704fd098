package repro.plan

import repro.pattern.{Automorphism, Pattern}

/** Symmetry breaking via partial orders (§4.1, after Grochow–Kellis [16]).
  *
  * Produces a set of ordering constraints (a, b) — meaning the data vertex
  * matched to pattern vertex `a` must be smaller than the one matched to
  * `b` — such that the only automorphisms consistent with the constraints
  * act as the identity on the '''regular''' vertices. Matches that satisfy
  * the constraints are then exactly the canonical representatives of each
  * automorphism class, so no per-match canonicality check is ever needed.
  *
  * Anti-vertices participate in automorphism computation (§4.3: they break
  * symmetries — see the pₑ example) but never receive ordering constraints
  * themselves, because they are never matched to data vertices; it is enough
  * to quotient out the automorphisms' action on regular vertices.
  */
object SymmetryBreaking {

  /** Ordering constraints (a, b) ⇒ m(a) < m(b). */
  def partialOrders(p: Pattern): Seq[(Int, Int)] = breakSymmetry(p)._1

  /** Ordering constraints and the regular multiplicity of `p`.
    *
    * Regular vertices are fixed in order. Each one's orbit under the
    * pointwise stabilizer of the vertices fixed so far is found by asking,
    * for every candidate w, whether some automorphism extends the fixed
    * points plus v → w; the group itself is never built. A vertex with a
    * non-trivial orbit is ordered before the rest of its orbit. Fixing every
    * regular vertex ends at the automorphisms that act as the identity on
    * them, so by orbit–stabilizer the product of the orbit sizes is the
    * number of distinct actions on the regular vertices
    * (`Automorphism.regularMultiplicity`).
    */
  def breakSymmetry(p: Pattern): (Seq[(Int, Int)], Long) = {
    val conds = collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var fixed = Map.empty[Int, Int]
    var multiplicity = 1L
    for (v <- p.regularVertices) {
      // Orbits are label/kind-pure, so orbit members of a regular vertex are regular.
      val orbit = p.regularVertices.filter(w => Automorphism.extending(p, fixed + (v -> w)).hasNext)
      multiplicity *= orbit.size
      for (w <- orbit if w != v) conds += ((v, w))
      fixed += v -> v
    }
    (conds.toSeq, multiplicity)
  }

  /** Transitive closure of the ordering constraints, as a set of (a, b)
    * pairs with a ordered strictly before b. The matching engine uses this
    * to decide which vertex pairs still need explicit ≠ predicates.
    */
  def closure(conds: Seq[(Int, Int)]): Set[(Int, Int)] = {
    var edges = conds.toSet
    var changed = true
    while (changed) {
      val next = edges ++ (for {
        (a, b) <- edges; (c, d) <- edges if b == c
      } yield (a, d))
      changed = next.size != edges.size
      edges = next
    }
    edges
  }
}
