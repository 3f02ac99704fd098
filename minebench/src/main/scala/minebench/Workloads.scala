package minebench

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.apps.{CliqueCount, Fsm}
import repro.graph.DataGraph
import repro.pattern.{Pattern, Patterns}

/** One generated heavy-tailed graph: `GraphGen`'s vertex count, edge
  * draws, skew and labels, with every generator seed shifted by the
  * workload seed, so seed 0 reproduces `GraphGen`'s graph. `size` scales
  * vertices and draws together, which keeps the average degree and the
  * degree-tail shape.
  */
final case class GraphSpec(
    name: String,
    nV: Long,
    draws: Long,
    skew: Double,
    edgeSeed: Long,
    labels: Option[(Int, Long)] = None, // (label count, label seed), skewed as in GraphGen
    size: Double = 1.0
) {
  def build(spark: SparkSession, seed: Long): DataGraph = {
    val shift = 1000L * seed
    val n = math.max(16L, (nV * size).toLong)
    val d = (draws * size).toLong
    val edges = SynthData.graphEdgesZipf(spark, n, d, skew, edgeSeed + shift)
    val labs = labels.map { case (k, s) => SynthData.vertexLabelsSkewed(spark, n, k, skew = 2.0, seed = s + shift) }
    DataGraph.fromEdges(spark, edges, labs)
  }
}

object GraphSpec {
  /** `GraphGen.miLite`. */
  val mi = GraphSpec("MI", 2000, 24000, 1.6, 11, labels = Some((29, 12)))
}

/** What a query's reference is computed from, outside the timed region. */
final class RefContext(graphs: Map[String, DataGraph]) {
  private val ducks = collection.mutable.Map.empty[String, References.Duck]
  def duck(graph: String): References.Duck = ducks.getOrElseUpdate(graph, new References.Duck(graphs(graph)))
  def close(): Unit = ducks.values.foreach(_.close())
}

/** One query: the app call it times, the patterns it submits to the
  * planner, and its independent reference answer. `params` names
  * everything else the answer depends on.
  */
final case class Query(
    name: String,
    graph: String,
    params: String,
    patterns: Seq[Pattern],
    run: (SparkSession, DataGraph) => String,
    reference: RefContext => String
)

final case class Workload(name: String, graphs: Seq[GraphSpec], queries: Seq[Query]) {
  /** Identifies the inputs and queries, so cached references follow changes. */
  def digest: String =
    Integer.toHexString((graphs.map(_.toString) ++ queries.map(q => s"${q.name}/${q.graph}/${q.params}")).hashCode)
}

object Workloads {

  private def count(name: String, graph: String, p: Pattern)(run: DataGraph => Long): Query =
    Query(name, graph, p.toString, Seq(p), (_, g) => run(g).toString, r => r.duck(graph).count(p).toString)

  /** Frequent labeled edges, with label discovery. */
  private def fsm(name: String, graph: String, tau: Long): Query =
    Query(name, graph, tau.toString, Seq(Patterns.generateChain(2)),
      (spark, g) => References.fsmKey(Fsm.run(spark, g, maxEdges = 1, threshold = tau).frequent.toSeq),
      r => r.duck(graph).frequentEdges(tau))

  /** The benchmark's workloads at graph size `size` (1 = the lite graphs). */
  def all(size: Double): Seq[Workload] = {
    val mi = GraphSpec.mi.copy(size = size)
    Seq(
      Workload("match-mi", Seq(mi), Seq(
        count("c3", "MI", Patterns.generateClique(3))(CliqueCount.count(_, 3)),
      )),
      Workload("fsm", Seq(mi), Seq(
        fsm("fsm_mi", "MI", math.max(1L, (100 * size).toLong)),
      )),
    )
  }

  /** Every query name any workload runs, for the per-query metrics. */
  val queryNames: Seq[String] = all(1.0).flatMap(_.queries.map(_.name))
}
