package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.{DataType, IntegerType, LongType}
import repro.graph.DataGraph.{Edges, Labels}

/** The driver-side generators give exactly the rows of the Spark
  * expressions they replace (`SparkSynthData`): the same pairs, duplicates
  * counted.
  */
class SynthDataSpec extends SparkSpec {

  /** The reference's rows, sorted, after checking its columns are `cols`. */
  private def rows(df: DataFrame, cols: (String, DataType)*): Seq[(Long, Long)] = {
    assert(df.schema.map(f => f.name -> f.dataType) == cols)
    df.collect().toSeq.map(r => (r.getLong(0), r.get(1).asInstanceOf[Number].longValue)).sorted
  }

  private def same(driver: Seq[(Long, Long)], reference: Seq[(Long, Long)], what: String): Unit = {
    val d = driver.sorted
    assert(d.size == reference.size, s"$what: ${d.size} vs ${reference.size} rows")
    assert(d == reference, s"$what: first differences ${d.diff(reference).take(3)} vs ${reference.diff(d).take(3)}")
  }

  private def same(driver: Edges, reference: DataFrame, what: String): Unit =
    same(driver.src.indices.map(k => (driver.src(k), driver.dst(k))),
      rows(reference, "src" -> LongType, "dst" -> LongType), what)

  private def same(driver: Labels, reference: DataFrame, what: String): Unit =
    same(driver.v.indices.map(k => (driver.v(k), driver.lab(k).toLong)),
      rows(reference, "v" -> LongType, "lab" -> IntegerType), what)

  // (nV, draws, skew, seed): MI-lite; the benchmark's MI at seeds 1–3 (every
  // generator seed shifted by 1000 × seed) and at 5 % size; OK-lite's skew;
  // and graphs that leave one edge or none.
  private val zipfCases = Seq(
    (2000L, 24000L, 1.6, 11L),
    (2000L, 24000L, 1.6, 1011L),
    (2000L, 24000L, 1.6, 2011L),
    (2000L, 24000L, 1.6, 3011L),
    (100L, 1200L, 1.6, 11L),
    (2500L, 7000L, 1.4, 31L),
    (2L, 50L, 1.6, 5L),
    (1L, 100L, 1.6, 11L),
    (5L, 0L, 1.6, 11L)
  )

  test("graphEdgesZipf reproduces the Spark expression's rows") {
    for ((nV, draws, skew, seed) <- zipfCases)
      same(SynthData.graphEdgesZipf(spark, nV, draws, skew, seed),
        SparkSynthData.graphEdgesZipf(spark, nV, draws, skew, seed), s"zipf($nV, $draws, $skew, $seed)")
    assert(SynthData.graphEdgesZipf(spark, 1, 100, 1.6, 11).size == 0)
  }

  test("graphEdgesUniform reproduces the Spark expression's rows") {
    for ((nV, draws, seed) <- Seq((30000L, 26000L, 21L), (22000L, 20000L, 1022L), (500L, 2000L, 1L), (1L, 40L, 3L)))
      same(SynthData.graphEdgesUniform(spark, nV, draws, seed),
        SparkSynthData.graphEdgesUniform(spark, nV, draws, seed), s"uniform($nV, $draws, $seed)")
  }

  test("vertexLabels and vertexLabelsSkewed reproduce the Spark expressions' rows") {
    for ((nV, nLabels, seed) <- Seq((2000L, 29, 12L), (2000L, 29, 3012L), (100L, 29, 12L), (2500L, 6, 32L), (1L, 7, 9L), (0L, 3, 1L))) {
      same(SynthData.vertexLabels(spark, nV, nLabels, seed),
        SparkSynthData.vertexLabels(spark, nV, nLabels, seed), s"vertexLabels($nV, $nLabels, $seed)")
      for (skew <- Seq(2.0, 1.3))
        same(SynthData.vertexLabelsSkewed(spark, nV, nLabels, skew, seed),
          SparkSynthData.vertexLabelsSkewed(spark, nV, nLabels, skew, seed), s"vertexLabelsSkewed($nV, $nLabels, $skew, $seed)")
    }
  }

  test("plantedClique gives the reference's edges") {
    for (vs <- Seq(Seq(10L, 11L, 12L, 13L), Seq(7L, 3L, 5L), Seq(1L)))
      same(SynthData.plantedClique(spark, vs), SparkSynthData.plantedClique(spark, vs), s"plantedClique($vs)")
  }
}
