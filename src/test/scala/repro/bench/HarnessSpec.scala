package repro.bench

import repro.SparkSpec

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
}
