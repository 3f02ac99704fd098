package repro.graph

import repro.{SparkSpec, SynthData}
import repro.core.Existence
import repro.pattern.Patterns

/** Synthetic graph generators (the dataset substitution of DESIGN.md §3). */
class GraphGenSpec extends SparkSpec {

  private def pairs(e: DataGraph.Edges): Seq[(Long, Long)] = e.src.indices.map(k => (e.src(k), e.dst(k)))

  test("uniform edges are normalized, deduplicated, loop-free") {
    val e = SynthData.graphEdgesUniform(spark, nV = 500, nDraws = 2000, seed = 1)
    assert(pairs(e).count { case (s, d) => s >= d } == 0)
    assert(pairs(e).size == pairs(e).distinct.size)
    assert(e.dst.max < 500)
  }

  test("generators are deterministic in the seed") {
    def sig(e: DataGraph.Edges): Long = pairs(e).map { case (s, d) => s * 31 + d }.sum
    val a = SynthData.graphEdgesZipf(spark, 300, 1500, skew = 1.5, seed = 5)
    val b = SynthData.graphEdgesZipf(spark, 300, 1500, skew = 1.5, seed = 5)
    val c = SynthData.graphEdgesZipf(spark, 300, 1500, skew = 1.5, seed = 6)
    assert(sig(a) == sig(b))
    assert(sig(a) != sig(c))
    assert(a.size == b.size)
  }

  test("zipf endpoints concentrate on low ids (heavy tail)") {
    val g = DataGraph.fromEdges(spark, SynthData.graphEdgesZipf(spark, 1000, 8000, skew = 1.6, seed = 7), None)
    val u = DataGraph.fromEdges(spark, SynthData.graphEdgesUniform(spark, 1000, 8000, seed = 8), None)
    assert(GraphStats.describe(g).maxDegree > 2 * GraphStats.describe(u).maxDegree)
  }

  test("vertexLabels covers the requested range deterministically") {
    val l = SynthData.vertexLabels(spark, 1000, nLabels = 7, seed = 9)
    assert(l.size == 1000)
    assert(l.lab.min >= 0 && l.lab.max < 7)
    assert(l.lab.distinct.length == 7)
  }

  test("plantedClique produces a complete subgraph") {
    val e = SynthData.plantedClique(spark, Seq(10L, 11L, 12L, 13L))
    assert(e.size == 6)
  }

  test("lite datasets build and report Table 2 stats") {
    val scale = 0.2 // keep the unit test fast
    for (lite <- Seq(GraphGen.miLite(spark, scale), GraphGen.paLite(spark, scale))) {
      val s = GraphStats.describe(lite.graph)
      assert(s.numVertices > 100 && s.numEdges > 500)
      assert(lite.nLabels.forall(n => s.numLabels.exists(_ <= n)))
      lite.graph.unpersist()
    }
  }

  test("okLiteWithClique contains the planted clique") {
    val lite = GraphGen.okLiteWithClique(spark, k = 6, scale = 0.2)
    assert(Existence.exists(lite.graph, Patterns.generateClique(6)))
    lite.graph.unpersist()
  }

  test("MI-lite is heavy-tailed, PA-lite is flat (Table 2 shape)") {
    val mi = GraphGen.miLite(spark, 0.2)
    val pa = GraphGen.paLite(spark, 0.2)
    val miStats = GraphStats.describe(mi.graph)
    val paStats = GraphStats.describe(pa.graph)
    assert(miStats.maxDegree / miStats.avgDegree > paStats.maxDegree / paStats.avgDegree)
    mi.graph.unpersist(); pa.graph.unpersist()
  }
}
