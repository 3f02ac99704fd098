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
  def partialOrders(p: Pattern): Seq[(Int, Int)] = breakSymmetry(p, Automorphism.all(p))._1

  /** Ordering constraints and the regular multiplicity, both from the
    * automorphism group `autos` of `p`.
    *
    * Regular vertices are fixed in order: each one with a non-trivial orbit
    * under the current stabilizer is ordered before the rest of its orbit,
    * and the group shrinks to its stabilizer. Vertices before v stay fixed
    * by every subgroup, so this picks the smallest movable vertex each time
    * and ends at the automorphisms that fix every regular vertex. By
    * orbit–stabilizer the product of the orbit sizes is then the number of
    * distinct actions on the regular vertices
    * (`Automorphism.regularMultiplicity`).
    */
  def breakSymmetry(p: Pattern, autos: Seq[Map[Int, Int]]): (Seq[(Int, Int)], Int) = {
    val conds = collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var stabilizer = autos
    var multiplicity = 1
    for (v <- p.regularVertices) {
      val orbit = stabilizer.map(_(v)).toSet
      if (orbit.size > 1) {
        multiplicity *= orbit.size
        // Orbits are label/kind-pure, so orbit members of a regular vertex are regular.
        for (w <- (orbit - v).toSeq.sorted) conds += ((v, w))
        stabilizer = stabilizer.filter(sigma => sigma(v) == v)
      }
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
