package repro.core

import repro.{Check, SparkSpec, TestGraphs}
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
    assert(math.abs(ClusteringCoeff.coefficient(fig6) - 6.0 / 28.0) < 1e-12)
    // Boundaries: 2 triangles clear 0.2 (3·2 > 0.2·28); the exact value is not exceeded.
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
}
