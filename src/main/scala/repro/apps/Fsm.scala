package repro.apps

import org.apache.spark.sql.SparkSession
import repro.core.{MniSupport, PlanExecutor}
import repro.graph.DataGraph
import repro.pattern.{Pattern, Patterns}

/** Frequent subgraph mining (Fig 4a): anti-monotone exploration over
  * edge-induced labeled patterns with MNI support and dynamic label
  * discovery (§3.2.1).
  *
  * The loop works on unlabeled shapes: it starts from the single edge, then
  * repeatedly `extendByEdge`s the frequent shapes (those with a labeling
  * that reaches the threshold) up to `maxEdges` edges. One label-discovering
  * match of a shape yields all its labeled patterns, and stripping labels
  * commutes with adding an edge, so by MNI anti-monotonicity nothing is
  * missed: every frequent (e+1)-edge pattern extends a frequent e-edge one.
  * (Peregrine matches each labeled candidate separately; on the dataflow
  * substrate per-query overhead dominates small label-constrained matches,
  * so shape batching is the faithful-cost equivalent.) Within a shape, the
  * search itself extends only what the frequent frontier admits (`run`).
  */
object Fsm {

  /** Frequent patterns per edge count (1 .. maxEdges), by shape, then label sequence, with MNI supports. */
  final case class Result(frequent: Map[Int, Seq[(Pattern, Long)]]) {
    def totalPatterns: Int = frequent.values.map(_.size).sum
    def atSize(edges: Int): Seq[(Pattern, Long)] = frequent.getOrElse(edges, Seq.empty)
  }

  /** The frequent patterns of `g` with 1 to `maxEdges` edges at MNI
    * support ≥ `threshold`. The queries run on `g`'s session; `spark` is
    * unused and kept only so that the benchmark (`minebench/`), which
    * passes it, still compiles.
    *
    * Label discovery is pruned inside the executor's search by the frequent
    * frontier (`PlanExecutor.Admissible`): on the 1-edge level it admits
    * the labels at least `threshold` vertices carry; from the 2-edge level
    * on, the labels and label pairs of the frequent 1-edge patterns. This
    * drops only patterns below the threshold. In a match of a labeled
    * pattern P, a vertex u of label l is mapped to a vertex of label l, so
    * u's domain (the data vertices u is mapped to over all matches) holds
    * at most as many vertices as carry l, and MNI(P) ≤ that count. For an
    * edge (u, w) of P with labels (a, b), every match of P restricted to u
    * and w is a match of the 1-edge pattern E = a–b, so u's domain lies in
    * the domain of E's endpoint labeled a (both endpoints' domains are
    * equal when a = b), and MNI(P) ≤ MNI(E). So a frequent P carries only
    * labels with at least `threshold` vertices and only frequent labeled
    * edges, and every label of a frequent P with an edge lies on a
    * frequent labeled edge.
    */
  def run(
      spark: SparkSession,
      g: DataGraph,
      maxEdges: Int,
      threshold: Long,
      symmetry: Boolean = true
  ): Result = {
    require(g.labeled, "FSM requires a labeled graph")
    var shapes: Seq[Pattern] = Seq(Patterns.generateChain(2)) // one unlabeled edge
    var admissible = new PlanExecutor.Admissible(g.labelCounts.collect { case (l, n) if n >= threshold => l }, None)
    val out = collection.mutable.Map.empty[Int, Seq[(Pattern, Long)]]
    for (e <- 1 to maxEdges) {
      if (e > 1) shapes = Patterns.extendByEdge(shapes)
      val frequent = shapes.map { shape =>
        val reg = shape.regularVertices
        MniSupport.labeledSupports(g, shape, symmetry, Some(admissible))
          .filter(_._2 >= threshold)
          .sortBy(p => reg.map(p._1.labels))(Ordering.Implicits.seqOrdering)
      }
      out(e) = frequent.flatten
      if (e == 1) {
        val pairs = out(1).map { case (p, _) => (p.labels(1), p.labels(2)) }
        admissible = new PlanExecutor.Admissible(pairs.flatMap(lp => Seq(lp._1, lp._2)), Some(pairs))
      }
      shapes = shapes.zip(frequent).collect { case (shape, f) if f.nonEmpty => shape }
      if (shapes.isEmpty) return Result(out.toMap)
    }
    Result(out.toMap)
  }
}
