package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}

/** The data-graph substrate: normalization, degree ordering (§5.2), labels. */
class DataGraphSpec extends SparkSpec {

  test("self loops and duplicate edges are removed") {
    import spark.implicits._
    val raw = Seq((1L, 2L), (2L, 1L), (1L, 1L), (2L, 3L), (2L, 3L)).toDF("src", "dst")
    val g = DataGraph.fromEdges(spark, raw)
    assert(g.numEdges == 2)
    assert(g.numVertices == 3)
  }

  test("edges are canonical (src < dst) and adj is symmetric") {
    val g = TestGraphs.dataGraph(spark, TestGraphs.er(30, 80, seed = 71))
    assert(g.edges.filter(col("src") >= col("dst")).count() == 0)
    assert(g.adj.count() == 2 * g.numEdges)
    val flipped = g.adj.select(col("dst") as "src", col("src") as "dst")
    assert(g.adj.except(flipped).count() == 0)
  }

  test("vertex ids are a degree ranking (§5.2: v_i < v_j ⇔ deg ≤ deg)") {
    val g = TestGraphs.dataGraph(spark, TestGraphs.skewed(40, 120, seed = 72))
    val degs = GraphStats
      .degreeDf(g)
      .orderBy("v")
      .collect()
      .map(r => (r.getLong(0), r.getLong(1)))
    // ids are 0..n-1 and degree is non-decreasing in id
    assert(degs.map(_._1).toSeq == (0L until g.numVertices).toSeq)
    assert(degs.map(_._2).sliding(2).forall(w => w.length < 2 || w(0) <= w(1)))
  }

  test("the CSR holds each vertex's sorted adjacency, and labels by id") {
    val edges = TestGraphs.skewed(40, 120, seed = 73)
    val g = TestGraphs.dataGraph(spark, edges, TestGraphs.labels(40, 3, seed = 74))
    val csr = g.csr.value
    assert(csr.numVertices == g.numVertices)
    val adj = g.adj.collect().groupBy(_.getLong(0)).map { case (v, rs) => v.toInt -> rs.map(_.getLong(1).toInt).sorted.toSeq }
    for (v <- 0 until csr.numVertices)
      assert(csr.nbrs.slice(csr.offsets(v), csr.offsets(v + 1)).toSeq == adj(v), s"vertex $v")
    val labs = g.labels.get.collect().map(r => r.getLong(0).toInt -> r.getInt(1)).toMap
    assert(g.labelArray.get.value.toSeq == (0 until csr.numVertices).map(labs))
    g.unpersist()
  }

  test("isolated vertices are dropped") {
    import spark.implicits._
    val raw = Seq((1L, 2L)).toDF("src", "dst")
    val labels = Seq((1L, 0), (2L, 1), (99L, 2)).toDF("v", "lab")
    val g = DataGraph.fromEdges(spark, raw, Some(labels))
    assert(g.numVertices == 2)
    assert(g.labels.get.count() == 2) // label of the isolated vertex dropped with it
  }

  test("labels survive relabeling with the same multiset") {
    val labels = TestGraphs.labels(30, 4, seed = 73)
    val g = TestGraphs.dataGraph(spark, TestGraphs.er(30, 80, seed = 74), labels)
    val lg = g.labels.get
    val got = lg.groupBy("lab").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    // Compare against the original label multiset restricted to non-isolated vertices.
    val present = g.mapping.select("orig").collect().map(_.getLong(0)).toSet
    val expected = labels.filter { case (v, _) => present(v) }
      .groupBy(_._2).map { case (l, m) => l -> m.size.toLong }
    assert(got == expected)
  }

  test("degree stats vs DuckDB oracle") {
    val g = TestGraphs.dataGraph(spark, TestGraphs.er(30, 90, seed = 75))
    val stats = spark.range(1).select(
      lit(GraphStats.describe(g).maxDegree) as "maxdeg",
      lit(g.numVertices) as "nv"
    )
    Oracle.assertEquivalent(
      stats,
      "SELECT CAST(max(c) AS BIGINT) AS maxdeg, CAST(count(*) AS BIGINT) AS nv " +
        "FROM (SELECT src, count(*) AS c FROM g GROUP BY src)",
      "g" -> g.adj
    )
  }

  test("GraphStats.describe reports consistent values") {
    val g = TestGraphs.dataGraph(spark, TestGraphs.skewed(50, 150, seed = 76))
    val s = GraphStats.describe(g)
    assert(s.numVertices == g.numVertices && s.numEdges == g.numEdges)
    assert(s.maxDegree >= s.avgDegree)
    assert(math.abs(s.avgDegree - 2.0 * s.numEdges / s.numVertices) < 1e-9)
    assert(s.numLabels.isEmpty)
  }

  test("GraphStats counts labels when present") {
    val g = TestGraphs.dataGraph(spark, TestGraphs.er(30, 60, seed = 77), TestGraphs.labels(30, 5, seed = 78))
    assert(GraphStats.describe(g).numLabels.exists(n => n >= 1 && n <= 5))
  }

  test("mapping is a bijection onto 0..n-1") {
    val g = TestGraphs.dataGraph(spark, TestGraphs.er(25, 60, seed = 79))
    val ids = g.mapping.select("v").collect().map(_.getLong(0)).sorted
    assert(ids.toSeq == (0L until g.numVertices).toSeq)
    assert(g.mapping.select("orig").distinct().count() == g.numVertices)
  }
}
