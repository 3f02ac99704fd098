package repro.apps

import repro.core.{Existence, MatchEngine}
import repro.graph.DataGraph
import repro.pattern.Patterns

/** Global clustering coefficient existence query (Fig 4b).
  *
  * The coefficient is the standard 3·T / #connected triples: T triangles,
  * each closing three connected triples, over every path of length two,
  * of which there are Σ_v C(deg v, 2). A path of length two is exactly one
  * canonical match of the 2-spoke star, so the program counts the triples
  * as wedge matches, then counts triangles, stopping early once enough
  * triangles have been seen for the bound to hold. A lone triangle reads 1
  * and a star 0.
  */
object ClusteringCoeff {

  /** Canonical wedge count (edge-induced matches of the 2-spoke star): the
    * number of connected triples.
    */
  def wedges(g: DataGraph): Long =
    MatchEngine.countMatches(g, Patterns.generateStar(2))

  /** Canonical triangle count. */
  def triangles(g: DataGraph): Long =
    MatchEngine.countMatches(g, Patterns.generateClique(3))

  /** Exact global clustering coefficient: 3·triangles / wedges. */
  def coefficient(g: DataGraph): Double = {
    val w = wedges(g)
    if (w == 0) 0.0 else 3.0 * triangles(g) / w
  }

  /** Fig 4b: does the coefficient exceed `bound`? Triangle counting stops
    * as soon as the requisite number of triangles has been observed.
    */
  def exceedsBound(g: DataGraph, bound: Double): Boolean = {
    val triplets = wedges(g).toDouble
    if (triplets == 0) return false
    // The smallest triangle count T with 3T > bound · triplets is floor(x) + 1
    // for x = bound · triplets / 3. Rounding in x can shift that by one, so
    // the neighbours are checked with the same division `coefficient` uses.
    val t = math.floor(bound * triplets / 3.0).toLong + 1
    val needed = Seq(t - 1, t, t + 1).find(n => 3.0 * n / triplets > bound).getOrElse(t + 1)
    needed <= 0 || Existence.countAtLeast(g, Patterns.generateClique(3), needed)
  }
}
