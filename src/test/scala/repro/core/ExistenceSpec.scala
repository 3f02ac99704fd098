package repro.core

import org.apache.spark.sql.functions.lit
import repro.{Check, Oracle, SparkSpec, TestGraphs}
import repro.apps.ClusteringCoeff
import repro.graph.DataGraph
import repro.pattern.{Pattern, Patterns}

/** Existence queries and early termination (§5.3, Fig 4b/4f). */
class ExistenceSpec extends SparkSpec {

  private lazy val k4p = TestGraphs.dataGraph(spark, TestGraphs.k4Pendant)
  private lazy val er = TestGraphs.dataGraph(spark, TestGraphs.er(40, 100, seed = 51))

  /** `f`, checked to leave no RDD persisted (a graph itself
    * persists none: it is held as driver arrays and broadcasts).
    */
  private def releasing[A](what: String)(f: => A): A = {
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val out = f
    assert(spark.sparkContext.getPersistentRDDs.keySet == before, what)
    out
  }

  private def existsReleasing(g: DataGraph, p: Pattern): Boolean =
    releasing(s"exists $p")(Existence.exists(g, p))

  test("exists finds the planted 4-clique") {
    assert(Existence.exists(k4p, Patterns.generateClique(3)))
    assert(Existence.exists(k4p, Patterns.generateClique(4)))
    assert(!existsReleasing(k4p, Patterns.generateClique(5)))
  }

  test("exists on arbitrary patterns") {
    assert(Existence.exists(k4p, Patterns.generateChain(3)))
    assert(Existence.exists(k4p, Patterns.generateStar(4))) // vertex 4 has degree 4
    assert(!Existence.exists(k4p, Patterns.generateStar(5))) // max degree is 4
  }

  test("exists agrees with the DuckDB count") {
    for (k <- 3 to 5) {
      val clique = Patterns.generateClique(k)
      assert(Existence.exists(k4p, clique) == (Check.engineVsOracle(spark, k4p, clique) > 0), s"k=$k")
    }
    val triangle = Patterns.generateClique(3)
    assert(Existence.exists(er, triangle) == (Check.engineVsOracle(spark, er, triangle) > 0))
  }

  test("large clique existence terminates fast on graphs without one") {
    // The frontier empties early — this must complete quickly.
    assert(!existsReleasing(er, Patterns.generateClique(14)))
  }

  test("countAtLeast thresholds") {
    val triangle = Patterns.generateClique(3)
    val triangles = releasing("countMatches")(MatchEngine.countMatches(er, triangle))
    assert(triangles > 1)
    assert(Existence.countAtLeast(er, triangle, 1))
    assert(Existence.countAtLeast(er, triangle, triangles))
    assert(!Existence.countAtLeast(er, triangle, triangles + 1))
  }

  test("clustering coefficient of fig6 (2 triangles, 14 wedges)") {
    val fig6 = TestGraphs.dataGraph(spark, TestGraphs.fig6)
    assert(ClusteringCoeff.triangles(fig6) == 2)
    assert(ClusteringCoeff.wedges(fig6) == 14)
    assert(math.abs(ClusteringCoeff.coefficient(fig6) - 6.0 / 14.0) < 1e-12)
    // Boundaries: 2 triangles clear 0.2 (3·2 > 0.2·14); the exact value is not exceeded.
    assert(ClusteringCoeff.exceedsBound(fig6, 0.2))
    assert(!ClusteringCoeff.exceedsBound(fig6, ClusteringCoeff.coefficient(fig6)))
  }

  test("exceedsBound agrees with the exact coefficient") {
    val cc = ClusteringCoeff.coefficient(er)
    assert(cc > 0)
    assert(ClusteringCoeff.exceedsBound(er, cc * 0.5))
    assert(!ClusteringCoeff.exceedsBound(er, cc * 1.5))
  }

  test("exceedsBound on a triangle-free-ish bound edge cases") {
    val star = TestGraphs.dataGraph(spark, Seq((1L, 2L), (1L, 3L), (1L, 4L)))
    assert(ClusteringCoeff.triangles(star) == 0)
    assert(!ClusteringCoeff.exceedsBound(star, 0.01))
  }

  test("clustering coefficient of a triangle, a star and K4") {
    val triangle = TestGraphs.dataGraph(spark, Seq((1L, 2L), (2L, 3L), (1L, 3L)))
    val star = TestGraphs.dataGraph(spark, Seq((1L, 2L), (1L, 3L), (1L, 4L)))
    val k4 = TestGraphs.dataGraph(spark, TestGraphs.k4Pendant.filter(_._2 <= 4))
    assert(ClusteringCoeff.coefficient(triangle) == 1.0)
    assert(ClusteringCoeff.coefficient(star) == 0.0)
    assert(ClusteringCoeff.coefficient(k4) == 1.0)
    for (g <- Seq(triangle, k4)) {
      assert(ClusteringCoeff.exceedsBound(g, 0.99))
      assert(!ClusteringCoeff.exceedsBound(g, 1.0))
    }
  }

  test("clustering coefficient vs DuckDB's 3·triangles / Σ C(deg, 2)") {
    import spark.implicits._
    for ((edges, what) <- Seq((TestGraphs.er(40, 100, seed = 51), "er"), (TestGraphs.skewed(40, 120, seed = 52), "skewed"))) {
      val raw = edges.toDF("src", "dst")
      val cc = ClusteringCoeff.coefficient(DataGraph.fromEdges(spark, raw))
      Oracle.assertEquivalent(
        spark.range(1).select(lit(cc) as "cc"),
        """WITH e AS (SELECT DISTINCT least(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS a,
          |                           greatest(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS b
          |           FROM raw WHERE CAST(src AS BIGINT) <> CAST(dst AS BIGINT)),
          |     d AS (SELECT x, count(*) AS deg FROM (SELECT a AS x FROM e UNION ALL SELECT b FROM e) GROUP BY x)
          |SELECT CAST(3 * (SELECT count(*) FROM e e1 JOIN e e2 ON e2.a = e1.b JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b) AS DOUBLE)
          |       / (SELECT sum(deg * (deg - 1) / 2) FROM d) AS cc""".stripMargin,
        "raw" -> raw)
      assert(cc > 0, what)
    }
  }
}
