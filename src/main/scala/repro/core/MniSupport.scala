package repro.core

import org.roaringbitmap.RoaringBitmap
import repro.graph.DataGraph
import repro.pattern.{Automorphism, Pattern}
import repro.plan.Planner

/** Minimum node image (MNI) support computation (§2.1, §3.2.1, §5.5).
  *
  * Peregrine maintains per-pattern ''domains'' — for each pattern vertex,
  * the set of data vertices matched to it — and defines support as the
  * minimum domain size. As in Peregrine, domains are Roaring bitmaps filled
  * during matching: `PlanExecutor.domains` collects them per task and the
  * driver merges them; everything here runs on the driver over those
  * bitmaps.
  *
  * Subtlety (paper §6.6): with symmetry breaking, each unique subgraph is
  * matched once, in its canonical orientation only, while MNI is defined
  * over ''all'' isomorphisms. Since every isomorphism is a canonical match
  * composed with a pattern automorphism, the exact domains are recovered by
  * merging raw domains across each automorphism orbit of the (labeled)
  * pattern before taking the minimum.
  */
object MniSupport {

  /** MNI support of `p` in `g`; `p` is fully labeled, or `g` unlabeled. */
  def support(g: DataGraph, p: Pattern): Long = {
    require(p.fullyLabeled || !g.labeled, "support of a pattern with wildcards needs an unlabeled graph")
    // Every match carries the same label sequence: at most one entry.
    val doms = PlanExecutor.domains(g, Planner.plan(p), symmetry = true, None)
    doms.values.headOption.map(smallestDomain(orbitIds(p), _)).getOrElse(0L)
  }

  /** Dynamic label discovery (§3.2.1): group the matches of the
    * partially-labeled pattern `p` by the fully-labeled pattern they
    * instantiate and compute each labeled pattern's MNI support.
    *
    * Returns (fully-labeled pattern, support) pairs; each pattern is `p`
    * with its wildcards labeled. Every group used is a subgroup of one: the
    * actions of Aut(shape) on the regular vertices, the shape being `p`
    * without its regular vertices' labels. A match's label sequence is
    * canonicalized as the lex-least relabelling under `p`'s group (the
    * actions keeping its labels and wildcards), so e.g. the A–B and B–A
    * labelings of a symmetric edge collapse into one labeled pattern, and
    * its domains are permuted to match. Domains are then orbit-merged, as in
    * `support`, under the labeled pattern's group: the actions keeping its
    * label sequence, which may exceed `p`'s (a chain with one end
    * pre-labeled gains the end swap when both ends get the same label).
    *
    * `admissible` goes to `PlanExecutor.domains`: the matches it does not
    * admit are never enumerated, so only the labeled patterns whose labels
    * and labeled edges it admits are returned, with the same supports as
    * without it (a pattern's automorphisms map its edges onto its edges, so
    * all the label sequences a pattern collects are admitted or none is).
    * `None` discovers every labeling present.
    */
  def labeledSupports(
      g: DataGraph, p: Pattern, symmetry: Boolean = true, admissible: Option[PlanExecutor.Admissible]
  ): Seq[(Pattern, Long)] = {
    require(g.labeled, "label discovery requires a labeled graph")
    val reg = p.regularVertices
    val shape = Automorphism.regularActions(p.copy(labels = p.labels -- reg))
    def keeping[A](ls: Seq[A]): Seq[Vector[Int]] = shape.filter(_.map(ls) == ls)
    val own = keeping(reg.map(p.getLabel))
    val canonical = collection.mutable.Map.empty[Seq[Int], Array[RoaringBitmap]]
    for ((ls, doms) <- PlanExecutor.domains(g, Planner.plan(p), symmetry, admissible)) {
      val perm = own.minBy(_.map(ls))(Ordering.Implicits.seqOrdering)
      val key = perm.map(ls)
      val permuted = perm.map(doms).toArray
      canonical.get(key) match {
        case Some(acc) => acc.indices.foreach(j => acc(j).or(permuted(j)))
        case None      => canonical(key) = permuted
      }
    }
    canonical.toSeq.map { case (key, doms) =>
      (p.copy(labels = p.labels ++ reg.zip(key)), smallestDomain(Automorphism.orbitIds(keeping(key)), doms))
    }
  }

  /** Orbit id of each of `p`'s regular vertices, in `regularVertices` order. */
  private[repro] def orbitIds(p: Pattern): Seq[Int] = Automorphism.orbitIds(Automorphism.regularActions(p))

  /** Support from the domains of a pattern's regular vertices (in
    * `regularVertices` order) and their orbit ids: the smallest union of an
    * orbit's domains.
    */
  private def smallestDomain(orbit: Seq[Int], doms: Array[RoaringBitmap]): Long =
    orbit.distinct.map(o => RoaringBitmap.or(orbit.indices.filter(orbit(_) == o).map(doms): _*).getLongCardinality).min
}
