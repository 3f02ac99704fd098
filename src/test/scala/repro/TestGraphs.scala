package repro

import org.apache.spark.sql.SparkSession
import repro.graph.DataGraph

/** Deterministic fixture graphs for unit tests.
  *
  * All fixtures are small enough for the DuckDB oracle and the local
  * brute-force reference; edges are given over arbitrary vertex ids — the
  * DataGraph substrate renormalizes / degree-orders them.
  */
object TestGraphs {

  /** Triangle 1-2-3 with a tail 3-4. */
  val tailedTriangle: Seq[(Long, Long)] = Seq((1L, 2L), (2L, 3L), (1L, 3L), (3L, 4L))

  /** Two triangles sharing vertex 3 (bowtie). */
  val bowtie: Seq[(Long, Long)] = Seq((1L, 2L), (1L, 3L), (2L, 3L), (3L, 4L), (3L, 5L), (4L, 5L))

  /** 4-clique plus a pendant. */
  val k4Pendant: Seq[(Long, Long)] =
    Seq((1L, 2L), (1L, 3L), (1L, 4L), (2L, 3L), (2L, 4L), (3L, 4L), (4L, 5L))

  /** The Fig 6-style data graph: triangle v1,v4,v6; v2 adjacent to v1 and v4. */
  val fig6: Seq[(Long, Long)] =
    Seq((1L, 4L), (4L, 6L), (1L, 6L), (1L, 2L), (2L, 4L), (3L, 1L), (5L, 4L))

  /** Deterministic Erdős–Rényi graph. */
  def er(nV: Int, nE: Int, seed: Long): Seq[(Long, Long)] = {
    val rnd = new scala.util.Random(seed)
    val out = collection.mutable.LinkedHashSet.empty[(Long, Long)]
    while (out.size < nE) {
      val a = rnd.nextInt(nV).toLong
      val b = rnd.nextInt(nV).toLong
      if (a != b) out += (if (a < b) (a, b) else (b, a))
    }
    out.toSeq
  }

  /** Deterministic heavy-tailed graph (preferential-ish endpoint skew). */
  def skewed(nV: Int, nE: Int, seed: Long): Seq[(Long, Long)] = {
    val rnd = new scala.util.Random(seed)
    def draw(): Long = (math.pow(rnd.nextDouble(), 2.0) * nV).toLong.min(nV - 1L)
    val out = collection.mutable.LinkedHashSet.empty[(Long, Long)]
    var attempts = 0
    while (out.size < nE && attempts < nE * 50) {
      attempts += 1
      val a = draw(); val b = draw()
      if (a != b) out += (if (a < b) (a, b) else (b, a))
    }
    out.toSeq
  }

  /** Deterministic labels for vertices 0 until nV. */
  def labels(nV: Int, nLabels: Int, seed: Long): Map[Long, Int] = {
    val rnd = new scala.util.Random(seed)
    (0L until nV).map(v => v -> rnd.nextInt(nLabels)).toMap
  }

  /** Build the DataGraph substrate from explicit edges (+ optional labels). */
  def dataGraph(
      spark: SparkSession,
      edges: Seq[(Long, Long)],
      labels: Map[Long, Int] = Map.empty
  ): DataGraph = fromRows(spark, edges, Option.when(labels.nonEmpty)(labels.toSeq))

  /** Build the DataGraph substrate from edge rows and label rows, repeats
    * and all, as `DataGraph.fromEdges`'s arrays.
    */
  def fromRows(spark: SparkSession, edges: Seq[(Long, Long)], labels: Option[Seq[(Long, Int)]]): DataGraph =
    DataGraph.fromEdges(spark, DataGraph.Edges(edges.map(_._1).toArray, edges.map(_._2).toArray),
      labels.map(ls => DataGraph.Labels(ls.map(_._1).toArray, ls.map(_._2).toArray)))
}
