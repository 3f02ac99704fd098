package repro.bench

import repro.{SparkSpec, TestGraphs}
import repro.core.{MatchEngine, MniSupport}
import repro.pattern.Patterns

class HarnessSpec extends SparkSpec {

  test("a cell over budget returns x only after it has unwound") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val cell = Harness.budgeted(spark, "slow", 1) {
      val rdd = sc.parallelize(1 to 4, 4).map { i => Thread.sleep(60000); i }.cache()
      try rdd.count().toString
      finally rdd.unpersist(blocking = false)
    }
    assert(cell == Harness.Cell("x", None))
    assert(sc.statusTracker.getActiveJobIds().isEmpty)
    assert(sc.getPersistentRDDs.keySet == before)
  }

  test("a count over budget is cancelled inside the executor's tasks") {
    val sc = spark.sparkContext
    // Dense enough that its 6-spoke stars take far longer than the budget.
    val g = TestGraphs.dataGraph(spark, TestGraphs.er(200, 8000, seed = 61))
    g.csr
    val before = sc.getPersistentRDDs.keySet
    val cell = Harness.budgeted(spark, "star6", 1)(MatchEngine.countMatches(g, Patterns.generateStar(6)).toString)
    assert(cell == Harness.Cell("x", None))
    assert(sc.statusTracker.getActiveJobIds().isEmpty)
    assert(sc.getPersistentRDDs.keySet == before)
    g.unpersist()
  }

  test("an MNI support over budget is cancelled, and the session still counts right") {
    val sc = spark.sparkContext
    val g = TestGraphs.dataGraph(spark, TestGraphs.er(200, 8000, seed = 61))
    val triangles = MatchEngine.countMatches(g, Patterns.generateClique(3))
    val before = sc.getPersistentRDDs.keySet
    val cell = Harness.budgeted(spark, "star6-mni", 1)(MniSupport.support(g, Patterns.generateStar(6)).toString)
    assert(cell == Harness.Cell("x", None))
    assert(sc.statusTracker.getActiveJobIds().isEmpty)
    assert(sc.getPersistentRDDs.keySet == before)
    assert(MatchEngine.countMatches(g, Patterns.generateClique(3)) == triangles)
    g.unpersist()
  }
}
