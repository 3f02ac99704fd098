package repro.apps

import org.apache.spark.sql.SparkSession
import repro.core.MniSupport
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
  * so shape batching is the faithful-cost equivalent.)
  */
object Fsm {

  /** Frequent patterns per edge count (1 .. maxEdges), by shape, then label sequence, with MNI supports. */
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
    var shapes: Seq[Pattern] = Seq(Patterns.generateChain(2)) // one unlabeled edge
    val out = collection.mutable.Map.empty[Int, Seq[(Pattern, Long)]]
    for (e <- 1 to maxEdges) {
      if (e > 1) shapes = Patterns.extendByEdge(shapes)
      val frequent = shapes.map { shape =>
        val reg = shape.regularVertices
        MniSupport.labeledSupports(g, shape, symmetry)
          .filter(_._2 >= threshold)
          .sortBy(p => reg.map(p._1.labels))(Ordering.Implicits.seqOrdering)
      }
      out(e) = frequent.flatten
      shapes = shapes.zip(frequent).collect { case (shape, f) if f.nonEmpty => shape }
      if (shapes.isEmpty) return Result(out.toMap)
    }
    Result(out.toMap)
  }
}
