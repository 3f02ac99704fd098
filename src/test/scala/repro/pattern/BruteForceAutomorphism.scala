package repro.pattern

/** Test oracle: automorphisms by filtering all n! vertex permutations.
  * Independent of `Automorphism`'s search and only usable for small
  * patterns.
  */
object BruteForceAutomorphism {

  def all(p: Pattern): Seq[Map[Int, Int]] = {
    val vs = p.vertices
    vs.permutations.toSeq
      .map(perm => vs.zip(perm).toMap)
      .filter(sigma => preserves(p, sigma))
  }

  /** Whether permutation `sigma` preserves `p`'s structure and labels. */
  def preserves(p: Pattern, sigma: Map[Int, Int]): Boolean = {
    def mapped(es: Set[(Int, Int)]): Set[(Int, Int)] =
      es.map { case (u, v) => Pattern.norm(sigma(u), sigma(v)) }
    mapped(p.edges) == p.edges &&
    mapped(p.antiEdges) == p.antiEdges &&
    p.vertices.forall(v => p.getLabel(v) == p.getLabel(sigma(v)))
  }
}
