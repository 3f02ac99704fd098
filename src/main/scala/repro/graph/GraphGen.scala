package repro.graph

import org.apache.spark.sql.SparkSession
import repro.SynthData

/** Synthetic stand-ins for the paper's evaluation graphs (Table 2).
  *
  * We have no network egress, so Mico / Patents / Orkut / Friendster are
  * replaced by deterministic generators ~1000× smaller that preserve the
  * properties the evaluation exercises: relative size ordering, density,
  * degree-tail shape (hub-heavy vs flat), and labeling (see DESIGN.md §3).
  *
  *   - MI-lite: small, heavy-tailed co-authorship-like graph, 29 labels.
  *   - PA-lite: larger sparse citation-like graph with low max degree;
  *     the labeled variant is slightly smaller with 37 labels, like the
  *     paper's labeled Patents.
  *   - OK-lite: dense heavy-tailed social graph (highest avg degree).
  *   - FR-lite: the largest graph, sparse.
  *
  * `scale` multiplies edge-draw counts (1.0 = defaults used in benches).
  * Every maker builds its graph from `SynthData`'s driver arrays, so it
  * starts no Spark job.
  */
object GraphGen {

  /** A lite graph and its label count, mirroring one Table 2 row. */
  final case class Lite(graph: DataGraph, nLabels: Option[Int])

  def scaleFromEnv: Double = sys.env.get("REPRO_GRAPH_SCALE").map(_.toDouble).getOrElse(1.0)

  def miLite(spark: SparkSession, scale: Double = 1.0): Lite = {
    val nV = 2000L
    val edges = SynthData.graphEdgesZipf(spark, nV, (24000 * scale).toLong, skew = 1.6, seed = 11)
    val labels = SynthData.vertexLabelsSkewed(spark, nV, nLabels = 29, skew = 2.0, seed = 12)
    Lite(DataGraph.fromEdges(spark, edges, Some(labels)), Some(29))
  }

  def paLite(spark: SparkSession, scale: Double = 1.0): Lite = {
    val nV = 30000L
    val edges = SynthData.graphEdgesUniform(spark, nV, (130000 * scale).toLong, seed = 21)
    Lite(DataGraph.fromEdges(spark, edges, None), None)
  }

  /** Labeled Patents stand-in (paper: smaller than the unlabeled version, 37 labels). */
  def paLiteLabeled(spark: SparkSession, scale: Double = 1.0): Lite = {
    val nV = 22000L
    val edges = SynthData.graphEdgesUniform(spark, nV, (100000 * scale).toLong, seed = 22)
    val labels = SynthData.vertexLabelsSkewed(spark, nV, nLabels = 37, skew = 2.0, seed = 23)
    Lite(DataGraph.fromEdges(spark, edges, Some(labels)), Some(37))
  }

  def okLite(spark: SparkSession, scale: Double = 1.0): Lite = {
    val nV = 2500L
    val edges = SynthData.graphEdgesZipf(spark, nV, (35000 * scale).toLong, skew = 1.4, seed = 31)
    Lite(DataGraph.fromEdges(spark, edges, None), None)
  }

  def frLite(spark: SparkSession, scale: Double = 1.0): Lite = {
    val nV = 60000L
    val edges = SynthData.graphEdgesZipf(spark, nV, (450000 * scale).toLong, skew = 1.25, seed = 41)
    Lite(DataGraph.fromEdges(spark, edges, None), None)
  }

  /** OK-lite with synthetic labels 0-5 — the paper adds uniform labels 1-6
    * to Orkut/Friendster for the labeled p2 comparison (§6.1).
    */
  def okLiteLabeled6(spark: SparkSession, scale: Double = 1.0): Lite = {
    val nV = 2500L
    val edges = SynthData.graphEdgesZipf(spark, nV, (35000 * scale).toLong, skew = 1.4, seed = 31)
    val labels = SynthData.vertexLabels(spark, nV, nLabels = 6, seed = 32)
    Lite(DataGraph.fromEdges(spark, edges, Some(labels)), Some(6))
  }

  /** FR-lite with synthetic labels 0-5 (see okLiteLabeled6). */
  def frLiteLabeled6(spark: SparkSession, scale: Double = 1.0): Lite = {
    val nV = 60000L
    val edges = SynthData.graphEdgesZipf(spark, nV, (450000 * scale).toLong, skew = 1.25, seed = 41)
    val labels = SynthData.vertexLabels(spark, nV, nLabels = 6, seed = 42)
    Lite(DataGraph.fromEdges(spark, edges, Some(labels)), Some(6))
  }

  /** OK-lite with a planted clique, for "found quickly" existence queries. */
  def okLiteWithClique(spark: SparkSession, k: Int, scale: Double = 1.0): Lite = {
    val nV = 2500L
    val base = SynthData.graphEdgesZipf(spark, nV, (35000 * scale).toLong, skew = 1.4, seed = 31)
    val clique = SynthData.plantedClique(spark, (100L until (100L + k)))
    Lite(DataGraph.fromEdges(spark, base ++ clique, None), None)
  }
}
