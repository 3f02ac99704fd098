package repro.graph

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.catalyst.rules.RuleExecutor
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData, TestGraphs}
import repro.apps.{CliqueCount, Fsm}
import repro.bench.LiteData
import repro.core.Existence
import repro.pattern.Patterns

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
    // Degrees read from the `adj` relation, not from the CSR the ranking built.
    val degs = g.adj
      .groupBy(col("src") as "v")
      .agg(count(lit(1)) as "deg")
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

  /** DuckDB's normalization and degree ranking of a raw edge table `raw`. */
  private val rankedSql =
    """WITH e AS (SELECT DISTINCT least(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS a,
      |                           greatest(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS b
      |           FROM raw WHERE CAST(src AS BIGINT) <> CAST(dst AS BIGINT)),
      |     d AS (SELECT x AS orig, count(*) AS deg FROM (SELECT a AS x FROM e UNION ALL SELECT b FROM e) GROUP BY x),
      |     m AS (SELECT orig, row_number() OVER (ORDER BY deg, orig) - 1 AS v FROM d)""".stripMargin

  test("mapping and edges match DuckDB's ranking on large sparse ids, reversed duplicates, self-loops and ties") {
    import spark.implicits._
    val big = 1L << 32
    val (a, b, c, d, e) = (big + 7, 3L * big, 5L, Long.MaxValue - 1, big + 8)
    val rawEdges = Seq(
      (a, b), (b, a), (a, b), // one edge, given three times in both orientations
      (c, a), (c, c), (42L, 42L), // self-loops; 42 has no other edge, so it is no vertex
      (b, c), (c, d), (d, e), (e, b), (a, e) // d has degree 2; a, b, c and e tie at 3
    )
    val raw = rawEdges.toDF("src", "dst")
    val g = DataGraph.fromEdges(spark, raw)
    Oracle.assertEquivalent(g.mapping, s"$rankedSql SELECT orig, v FROM m", "raw" -> raw)
    Oracle.assertEquivalent(g.edges,
      s"""$rankedSql SELECT least(x.v, y.v) AS src, greatest(x.v, y.v) AS dst
         |FROM e JOIN m x ON x.orig = e.a JOIN m y ON y.orig = e.b""".stripMargin,
      "raw" -> raw)
    assert(g.numVertices == 5 && g.numEdges == 7)
  }

  test("an empty edge list, or one of self-loops only, gives an empty graph") {
    import spark.implicits._
    for (raw <- Seq(Seq.empty[(Long, Long)], Seq((1L, 1L), (7L, 7L)))) {
      val labels = Seq((1L, 0), (7L, 1)).toDF("v", "lab")
      for (g <- Seq(DataGraph.fromEdges(spark, raw.toDF("src", "dst")),
                    DataGraph.fromEdges(spark, raw.toDF("src", "dst"), Some(labels)))) {
        assert(g.numVertices == 0 && g.numEdges == 0)
        assert(g.csr.value.numVertices == 0 && g.csr.value.nbrs.isEmpty)
        assert(g.edges.count() == 0 && g.adj.count() == 0 && g.vertices.count() == 0 && g.mapping.count() == 0)
        assert(CliqueCount.count(g, 3) == 0)
        assert(!Existence.exists(g, Patterns.generateChain(2)))
        if (g.labeled) {
          assert(g.labelArray.get.value.isEmpty && g.labels.get.count() == 0)
          assert(Fsm.run(spark, g, maxEdges = 2, threshold = 1).totalPatterns == 0)
        }
        g.unpersist()
      }
    }
  }

  test("vertices the label relation omits read NoLabel and have no labels row") {
    import spark.implicits._
    val g = DataGraph.fromEdges(spark, Seq((1L, 2L), (2L, 3L), (3L, 4L)).toDF("src", "dst"),
      Some(Seq((1L, 5), (3L, 6)).toDF("v", "lab")))
    val byOrig = g.mapping.collect().map(r => r.getLong(0) -> r.getLong(1).toInt).toMap
    val arr = g.labelArray.get.value
    assert(Seq(1L, 2L, 3L, 4L).map(o => arr(byOrig(o))) == Seq(5, Csr.NoLabel, 6, Csr.NoLabel))
    assert(g.labels.get.collect().map(r => r.getLong(0) -> r.getInt(1)).toSet == Set(byOrig(1L).toLong -> 5, byOrig(3L).toLong -> 6))
  }

  test("a vertex has one label: repeated rows collapse, two different labels are refused") {
    import spark.implicits._
    val raw = Seq((1L, 2L)).toDF("src", "dst")
    val g = DataGraph.fromEdges(spark, raw, Some(Seq((1L, 4), (1L, 4), (2L, 3)).toDF("v", "lab")))
    assert(g.labels.get.count() == 2)
    intercept[IllegalArgumentException](DataGraph.fromEdges(spark, raw, Some(Seq((1L, 4), (1L, 5)).toDF("v", "lab"))))
  }

  /** The benchmark's MI graph at 5 % size as driver-local DataFrames of the
    * generators' zipf edges and skewed labels.
    */
  private def miSmall = {
    import spark.implicits._
    val e = SynthData.graphEdgesZipf(spark, 100, 1200, 1.6, 11)
    val l = SynthData.vertexLabelsSkewed(spark, 100, 29, 2.0, 12)
    (e.src.zip(e.dst).toSeq.toDF("src", "dst"), l.v.zip(l.lab).toSeq.toDF("v", "lab"))
  }

  /** Catalyst rule runs (analyzer and optimizer) and generated classes
    * compiled so far in this JVM.
    */
  private def catalystWork: (Long, Long) =
    (RuleExecutor.getCurrentMetrics().numRuns, CodegenMetrics.METRIC_COMPILATION_TIME.getCount)

  test("a build from the generators starts no Spark job") {
    val d = new LiteData(spark, 0.05)
    for (name <- d.names) {
      val before = catalystWork
      val (b, jobs) = jobsDuring(d.build(name))
      assert(jobs.isEmpty, name)
      assert(catalystWork == before, s"$name ran Catalyst rules or code generation")
      assert(b.graph.numEdges > 0, name)
      b.graph.unpersist()
    }
    // The checks see work: the same edges as a DataFrame are analyzed, and
    // spread over partitions they cost a job.
    val before = catalystWork
    val (edges, _) = miSmall
    assert(catalystWork._1 > before._1)
    assert(jobsDuring(DataGraph.fromEdges(spark, edges.repartition(8)))._2.nonEmpty)
  }

  test("a driver-local relation and its repartitioned copy build the same graph") {
    val (edges, labels) = miSmall
    val local = DataGraph.fromEdges(spark, edges, Some(labels))
    val spread = DataGraph.fromEdges(spark, edges.repartition(8), Some(labels.repartition(8)))
    assertSameGraph(local, spread, "local vs repartitioned")
    local.unpersist(); spread.unpersist()
  }

  private def mapping(g: DataGraph): Seq[(Long, Long)] =
    g.mapping.collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq

  private def assertSameGraph(a: DataGraph, b: DataGraph, what: String): Unit = {
    assert(a.numVertices == b.numVertices && a.numEdges == b.numEdges, what)
    val (x, y) = (a.csr.value, b.csr.value)
    assert(x.offsets.toSeq == y.offsets.toSeq && x.nbrs.toSeq == y.nbrs.toSeq, what)
    assert(a.labelArray.map(_.value.toSeq) == b.labelArray.map(_.value.toSeq), what)
    assert(mapping(a) == mapping(b), what)
  }

  test("the array builder and the DataFrame adapter build the same graph") {
    import spark.implicits._
    val big = 1L << 32
    val (a, b, c, d, e) = (big + 7, 3L * big, 5L, Long.MaxValue - 1, big + 8)
    val cases: Seq[(String, Seq[(Long, Long)], Option[Seq[(Long, Int)]])] = Seq(
      // ids above 32 bits, reversed duplicates, self-loops and degree ties
      ("sparse ids", Seq((a, b), (b, a), (a, b), (c, a), (c, c), (42L, 42L), (b, c), (c, d), (d, e), (e, b), (a, e)),
        Some(Seq((a, 1), (b, 2), (d, 1), (e, 0), (42L, 5)))),
      ("degree ties", Seq((1L, 2L), (3L, 4L), (5L, 6L), (2L, 3L), (6L, 1L)), None),
      ("empty", Seq.empty, Some(Seq((1L, 0)))),
      ("self-loops only", Seq((1L, 1L), (7L, 7L)), Some(Seq((1L, 0), (7L, 1)))),
      // labels of vertices without an edge, a repeated label and an unlabeled vertex
      ("labels off the graph", Seq((1L, 2L), (2L, 3L), (3L, 4L)), Some(Seq((1L, 5), (1L, 5), (3L, 6), (9L, 1), (big, 2))))
    )
    for ((what, es, ls) <- cases) {
      val arrays = DataGraph.fromEdges(spark, DataGraph.Edges(es.map(_._1).toArray, es.map(_._2).toArray),
        ls.map(l => DataGraph.Labels(l.map(_._1).toArray, l.map(_._2).toArray)))
      val frames = DataGraph.fromEdges(spark, es.toDF("src", "dst"), ls.map(_.toDF("v", "lab")))
      assertSameGraph(arrays, frames, what)
      arrays.unpersist(); frames.unpersist()
    }
    val (es, twoLabels) = (Seq((1L, 2L)), Seq((1L, 4), (1L, 5)))
    intercept[IllegalArgumentException](DataGraph.fromEdges(spark, DataGraph.Edges(Array(1L), Array(2L)),
      Some(DataGraph.Labels(twoLabels.map(_._1).toArray, twoLabels.map(_._2).toArray))))
    intercept[IllegalArgumentException](DataGraph.fromEdges(spark, es.toDF("src", "dst"), Some(twoLabels.toDF("v", "lab"))))
  }
}
