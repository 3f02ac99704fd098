package repro.apps

import org.apache.spark.sql.SparkSession
import repro.core.MniSupport
import repro.graph.DataGraph
import repro.pattern.{CanonicalForm, Pattern, Patterns}

/** Frequent subgraph mining (Fig 4a): anti-monotone exploration over
  * edge-induced labeled patterns with MNI support and dynamic label
  * discovery (§3.2.1).
  *
  * The loop starts from the single unlabeled edge (its matches discover all
  * frequent 1-edge labelings), then repeatedly `extendByEdge`s the frequent
  * fully-labeled patterns — each extension adds either an edge between
  * existing vertices or one new unlabeled vertex, whose label is discovered
  * during matching — up to `maxEdges` edges. MNI anti-monotonicity
  * guarantees completeness: every frequent (e+1)-edge pattern extends some
  * frequent e-edge pattern.
  */
object Fsm {

  /** Frequent patterns per edge count (1 .. maxEdges), with MNI supports. */
  final case class Result(frequent: Map[Int, Seq[(Pattern, Long)]]) {
    def totalPatterns: Int = frequent.values.map(_.size).sum
    def atSize(edges: Int): Seq[(Pattern, Long)] = frequent.getOrElse(edges, Seq.empty)
  }

  def run(
      spark: SparkSession,
      g: DataGraph,
      maxEdges: Int,
      threshold: Long,
      symmetry: Boolean = true
  ): Result = {
    require(g.labeled, "FSM requires a labeled graph")
    var frontier: Seq[Pattern] = Seq(Patterns.generateChain(2)) // one unlabeled edge
    val out = collection.mutable.Map.empty[Int, Seq[(Pattern, Long)]]
    for (e <- 1 to maxEdges) {
      val candidates = if (e == 1) frontier else Patterns.extendByEdge(frontier)
      // Candidates sharing an unlabeled shape are matched in one pass: a
      // single label-discovering match of the shape subsumes every labeled
      // candidate of that shape, and by MNI anti-monotonicity every frequent
      // labeled pattern it finds is a valid frontier extension. Candidate
      // generation still prunes at shape granularity — a shape is only
      // matched when some frequent pattern extends into it. (At paper scale
      // Peregrine matches each labeled candidate separately; on the dataflow
      // substrate per-query overhead dominates small label-constrained
      // matches, so shape batching is the faithful-cost equivalent.)
      val shapes = CanonicalForm.distinct(
        candidates.map(c => c.copy(labels = Map.empty))
      )
      val frequent = shapes
        .flatMap(MniSupport.labeledSupports(g, _, symmetry))
        .filter(_._2 >= threshold)
        .map(p => (CanonicalForm.key(p._1), p))
        .sortBy(_._1)
        .map(_._2)
      out(e) = frequent
      frontier = frequent.map(_._1)
      if (frontier.isEmpty) return Result(out.toMap)
    }
    Result(out.toMap)
  }
}
