package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The graph generators as Spark expressions over `spark.range`: the
  * reference that `SynthData`'s driver-side generators must reproduce row
  * for row. All draws are hash-based (xxhash64), so the rows do not depend
  * on partitioning.
  */
object SparkSynthData {

  /** Uniform in [0,1) derived from (id, seed) — fully deterministic. */
  private def hashU(col: org.apache.spark.sql.Column, seed: Long) =
    (pmod(xxhash64(col, lit(seed)), lit(1000000007L)).cast(DoubleType) / 1000000007.0)

  /** Erdős–Rényi-style undirected edge list: `nDraws` endpoint pairs drawn
    * uniformly over [0, nV), self-loops and duplicate edges removed (so the
    * final edge count is slightly below `nDraws`). Columns: src, dst with
    * src < dst. Models sparse, low-max-degree graphs (Patents-like).
    */
  def graphEdgesUniform(spark: SparkSession, nV: Long, nDraws: Long, seed: Long): DataFrame = {
    val raw = spark.range(nDraws).select(
      (hashU(col("id"), seed) * nV).cast(LongType)     as "a",
      (hashU(col("id"), seed + 1) * nV).cast(LongType) as "b",
    )
    normalizeEdges(raw)
  }

  /** Heavy-tailed undirected edge list: endpoint v drawn as floor(nV * u^s)
    * with skew exponent s > 1, concentrating edges on low vertex ids (the
    * hubs). Models social-network-like graphs (Mico/Orkut-like). Larger
    * `skew` ⇒ heavier tail / higher max degree.
    */
  def graphEdgesZipf(spark: SparkSession, nV: Long, nDraws: Long, skew: Double, seed: Long): DataFrame = {
    def draw(s: Long) =
      least(lit(nV - 1), (pow(hashU(col("id"), s), lit(skew)) * nV).cast(LongType))
    val raw = spark.range(nDraws).select(draw(seed) as "a", draw(seed + 1) as "b")
    normalizeEdges(raw)
  }

  /** Deterministic vertex labels in [0, nLabels) for vertices [0, nV). */
  def vertexLabels(spark: SparkSession, nV: Long, nLabels: Int, seed: Long): DataFrame =
    spark.range(nV).select(
      col("id") as "v",
      pmod(xxhash64(col("id"), lit(seed)), lit(nLabels.toLong)).cast(IntegerType) as "lab",
    )

  /** Skewed deterministic labels: label floor(nLabels·u^skew), so low labels
    * are common and high labels rare — real label distributions (research
    * fields, patent years) are heavy-tailed, and FSM thresholds only
    * discriminate when label frequencies differ.
    */
  def vertexLabelsSkewed(spark: SparkSession, nV: Long, nLabels: Int, skew: Double, seed: Long): DataFrame =
    spark.range(nV).select(
      col("id") as "v",
      least(lit(nLabels - 1),
        (pow(hashU(col("id"), seed), lit(skew)) * nLabels).cast(IntegerType)) as "lab",
    )

  /** Edges of a planted k-clique over vertices `vs` (for existence queries). */
  def plantedClique(spark: SparkSession, vs: Seq[Long]): DataFrame = {
    import spark.implicits._
    (for (i <- vs.indices; j <- (i + 1) until vs.size)
      yield (math.min(vs(i), vs(j)), math.max(vs(i), vs(j))))
      .toDF("src", "dst")
  }

  /** Drop self loops, orient src < dst, deduplicate. */
  def normalizeEdges(raw: DataFrame): DataFrame =
    raw
      .filter(col("a") =!= col("b"))
      .select(least(col("a"), col("b")) as "src", greatest(col("a"), col("b")) as "dst")
      .distinct()
}
