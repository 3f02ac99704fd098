package repro.apps

import repro.core.{Existence, MatchEngine}
import repro.graph.DataGraph
import repro.pattern.Patterns

/** Global clustering coefficient existence query (Fig 4b).
  *
  * The program first counts edge-induced 3-star (wedge) matches — the
  * number of triplets is twice that, since the wedge endpoints are
  * symmetric — then counts triangles, stopping early once enough triangles
  * have been seen for the bound to hold.
  */
object ClusteringCoeff {

  /** Canonical wedge count (edge-induced matches of the 2-spoke star). */
  def wedges(g: DataGraph): Long =
    MatchEngine.countMatches(g, Patterns.generateStar(2))

  /** Canonical triangle count. */
  def triangles(g: DataGraph): Long =
    MatchEngine.countMatches(g, Patterns.generateClique(3))

  /** Exact global clustering coefficient: 3·triangles / triplets, with
    * triplets = 2 · wedge matches (per the Fig 4b program's accounting).
    */
  def coefficient(g: DataGraph): Double = {
    val w = wedges(g)
    if (w == 0) 0.0 else 3.0 * triangles(g) / (2.0 * w)
  }

  /** Fig 4b: does the coefficient exceed `bound`? Triangle counting stops
    * as soon as the requisite number of triangles has been observed.
    */
  def exceedsBound(g: DataGraph, bound: Double): Boolean = {
    val triplets = 2.0 * wedges(g)
    if (triplets == 0) return false
    // The smallest triangle count T with 3T > bound · triplets is floor(x) + 1
    // for x = bound · triplets / 3. Rounding in x can shift that by one, so
    // the neighbours are checked with the same division `coefficient` uses.
    val t = math.floor(bound * triplets / 3.0).toLong + 1
    val needed = Seq(t - 1, t, t + 1).find(n => 3.0 * n / triplets > bound).getOrElse(t + 1)
    needed <= 0 || Existence.countAtLeast(g, Patterns.generateClique(3), needed)
  }
}
