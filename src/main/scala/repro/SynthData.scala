package repro

import java.util.stream.LongStream
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions.XXH64
import repro.graph.DataGraph.{Edges, Labels}

/** Deterministic graph generators (Peregrine reproduction). All draws are
  * hash-based (xxhash64), not random, so the DuckDB oracle and Spark see the
  * same graph.
  *
  * The edges and labels are computed on the driver and returned as plain
  * arrays (`DataGraph.Edges`, `DataGraph.Labels`), which
  * `DataGraph.fromEdges` builds a graph from without Spark or Catalyst.
  * Every draw is the one the Spark expression
  * `pmod(xxhash64(id, lit(seed)), 1000000007) / 1000000007.0` would give for
  * row `id` of `spark.range`, followed by Spark's `pow` (`StrictMath.pow`),
  * truncating casts and `least`, so the arrays hold exactly that
  * expression's rows. The `spark` parameters are unused: they are kept only
  * so that the benchmark (`minebench/`), which passes them, still compiles.
  */
object SynthData {

  private val P = 1000000007L

  /** Spark's `xxhash64(id, lit(seed))`: XXH64 of the id from Spark's default
    * seed 42, then of the seed from that hash.
    */
  private def xxhash64(id: Long, seed: Long): Long = XXH64.hashLong(seed, XXH64.hashLong(id, 42L))

  /** Uniform in [0,1) derived from (id, seed) — fully deterministic. */
  private def hashU(id: Long, seed: Long): Double = Math.floorMod(xxhash64(id, seed), P).toDouble / P

  /** Erdős–Rényi-style undirected edge list: `nDraws` endpoint pairs drawn
    * uniformly over [0, nV), self-loops and duplicate edges removed (so the
    * final edge count is slightly below `nDraws`), each with src < dst.
    * Models sparse, low-max-degree graphs (Patents-like).
    */
  def graphEdgesUniform(spark: SparkSession, nV: Long, nDraws: Long, seed: Long): Edges =
    normalizedEdges(nV, nDraws)(id => (hashU(id, seed) * nV).toLong, id => (hashU(id, seed + 1) * nV).toLong)

  /** Heavy-tailed undirected edge list: endpoint v drawn as floor(nV * u^s)
    * with skew exponent s > 1, concentrating edges on low vertex ids (the
    * hubs). Models social-network-like graphs (Mico/Orkut-like). Larger
    * `skew` ⇒ heavier tail / higher max degree.
    */
  def graphEdgesZipf(spark: SparkSession, nV: Long, nDraws: Long, skew: Double, seed: Long): Edges = {
    def draw(id: Long, s: Long) = math.min(nV - 1, (StrictMath.pow(hashU(id, s), skew) * nV).toLong)
    normalizedEdges(nV, nDraws)(draw(_, seed), draw(_, seed + 1))
  }

  /** Deterministic vertex labels in [0, nLabels), one for each vertex of [0, nV). */
  def vertexLabels(spark: SparkSession, nV: Long, nLabels: Int, seed: Long): Labels =
    everyVertex(nV)(v => Math.floorMod(xxhash64(v, seed), nLabels.toLong).toInt)

  /** Skewed deterministic labels: label floor(nLabels·u^skew), so low labels
    * are common and high labels rare — real label distributions (research
    * fields, patent years) are heavy-tailed, and FSM thresholds only
    * discriminate when label frequencies differ.
    */
  def vertexLabelsSkewed(spark: SparkSession, nV: Long, nLabels: Int, skew: Double, seed: Long): Labels =
    everyVertex(nV)(v => math.min(nLabels - 1, (StrictMath.pow(hashU(v, seed), skew) * nLabels).toInt))

  /** Edges of a planted k-clique over vertices `vs` (for existence queries). */
  def plantedClique(spark: SparkSession, vs: Seq[Long]): Edges = {
    val pairs = for (i <- vs.indices; j <- (i + 1) until vs.size) yield (math.min(vs(i), vs(j)), math.max(vs(i), vs(j)))
    Edges(pairs.map(_._1).toArray, pairs.map(_._2).toArray)
  }

  /** The edges of draws `a(id)`–`b(id)` for `id` in [0, nDraws): self-loops
    * dropped, oriented src < dst, deduplicated by sorting the pairs packed
    * into one long each. Ids fit 31 bits, so a packed pair is non-negative
    * and -1 can mark a self-loop. The draws run on the driver's cores.
    */
  private def normalizedEdges(nV: Long, nDraws: Long)(a: Long => Long, b: Long => Long): Edges = {
    require(nV <= (1L << 31), s"$nV vertex ids do not pack two to a long")
    val packed = LongStream.range(0, nDraws).parallel()
      .map { id =>
        val x = a(id); val y = b(id)
        if (x == y) -1L else (math.min(x, y) << 32) | math.max(x, y)
      }
      .filter(_ >= 0)
      .sorted()
      .toArray
    val edges = packed.indices.filter(k => k == 0 || packed(k) != packed(k - 1)).map(packed).toArray
    Edges(edges.map(_ >>> 32), edges.map(_ & 0xffffffffL))
  }

  /** `label(v)` for every v in [0, nV). */
  private def everyVertex(nV: Long)(label: Long => Int): Labels = {
    val vs = Array.tabulate(Math.toIntExact(nV))(_.toLong)
    Labels(vs, vs.map(label))
  }
}
