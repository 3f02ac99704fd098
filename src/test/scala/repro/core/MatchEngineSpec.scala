package repro.core

import repro.{Check, LocalRef, SparkSpec, TestGraphs}
import repro.pattern.{Pattern, Patterns}
import repro.plan.Planner

/** Engine correctness on plain (no anti-constraint) patterns, every count
  * verified against the DuckDB oracle and/or the local brute-force ref.
  */
class MatchEngineSpec extends SparkSpec {

  private lazy val fig6 = TestGraphs.dataGraph(spark, TestGraphs.fig6)
  private lazy val er = TestGraphs.dataGraph(spark, TestGraphs.er(40, 120, seed = 7))
  private lazy val sk = TestGraphs.dataGraph(spark, TestGraphs.skewed(60, 200, seed = 8))

  private val diamond = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (2, 4))
  private val c4 = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1))
  private val house = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 5))
  private val bowtie = Pattern.fromEdges((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5))
  private val tailedTriangle = Pattern.fromEdges((1, 2), (2, 3), (1, 3), (3, 4))

  test("triangles on fig6 (known: 2)") {
    assert(Check.engineVsOracle(spark, fig6, Patterns.generateClique(3)) == 2)
  }

  test("wedges on fig6 (known: 14)") {
    assert(Check.engineVsOracle(spark, fig6, Patterns.generateStar(2)) == 14)
  }

  test("single edge matches = |E|") {
    assert(Check.engineVsOracle(spark, fig6, Patterns.generateChain(2)) == fig6.numEdges)
    assert(Check.engineVsOracle(spark, er, Patterns.generateChain(2)) == er.numEdges)
  }

  test("single vertex matches = |V|") {
    assert(MatchEngine.countMatches(fig6, Pattern.singleton()) == fig6.numVertices)
  }

  test("triangles on random graphs vs oracle") {
    Check.engineVsOracle(spark, er, Patterns.generateClique(3))
    Check.engineVsOracle(spark, sk, Patterns.generateClique(3))
  }

  test("4-cliques and 5-cliques vs oracle") {
    Check.engineVsOracle(spark, er, Patterns.generateClique(4))
    Check.engineVsOracle(spark, sk, Patterns.generateClique(4))
    Check.engineVsOracle(spark, sk, Patterns.generateClique(5))
  }

  test("chains vs oracle") {
    Check.engineVsOracle(spark, er, Patterns.generateChain(3))
    Check.engineVsOracle(spark, er, Patterns.generateChain(4))
    Check.engineVsOracle(spark, sk, Patterns.generateChain(4))
  }

  test("stars vs oracle") {
    Check.engineVsOracle(spark, er, Patterns.generateStar(3))
    Check.engineVsOracle(spark, sk, Patterns.generateStar(3))
  }

  test("4-cycle vs oracle") {
    Check.engineVsOracle(spark, er, c4)
    Check.engineVsOracle(spark, sk, c4)
  }

  test("diamond vs oracle (the Fig 6 running example)") {
    Check.engineVsOracle(spark, fig6, diamond)
    Check.engineVsOracle(spark, er, diamond)
    Check.engineVsOracle(spark, sk, diamond)
  }

  test("house, bowtie, tailed triangle vs oracle") {
    Check.engineVsOracle(spark, er, house)
    Check.engineVsOracle(spark, er, bowtie)
    Check.engineVsOracle(spark, er, tailedTriangle)
    Check.engineVsOracle(spark, sk, tailedTriangle)
  }

  test("engine agrees with the local brute-force reference") {
    val edges = TestGraphs.er(25, 60, seed = 3)
    val g = TestGraphs.dataGraph(spark, edges)
    val ref = LocalRef.graph(edges)
    for (p <- Seq(Patterns.generateClique(3), Patterns.generateChain(4), diamond, c4))
      assert(MatchEngine.countMatches(g, p) == LocalRef.canonicalCount(p, ref), s"pattern $p")
  }

  test("all motif patterns of size 4 vs oracle on er") {
    for (p <- Patterns.generateAllVertexInduced(4) if p.edges.size >= 3)
      Check.engineVsOracle(spark, er, p)
  }

  test("PRG-U (no symmetry breaking) produces multiplicity-times the matches") {
    for (p <- Seq(Patterns.generateClique(3), diamond, Patterns.generateChain(3))) {
      val plan = Planner.plan(p)
      val canonical = PlanExecutor.run(er, plan, symmetry = true).count
      val raw = PlanExecutor.run(er, plan, symmetry = false).count
      assert(raw == canonical * plan.multiplicity, s"pattern $p")
      assert(MatchEngine.countMatches(er, p, symmetry = false) == canonical)
    }
  }

  test("labeled patterns vs oracle") {
    val edges = TestGraphs.er(40, 120, seed = 11)
    val labels = TestGraphs.labels(40, 3, seed = 12)
    val g = TestGraphs.dataGraph(spark, edges, labels)
    val labeledEdge = Patterns.generateChain(2).addLabel(1, 0).addLabel(2, 1)
    val labeledWedge = Patterns.generateChain(3).addLabel(2, 2)
    val labeledTriangle = Patterns.generateClique(3).addLabel(1, 0).addLabel(2, 1).addLabel(3, 2)
    Check.engineVsOracle(spark, g, labeledEdge)
    Check.engineVsOracle(spark, g, labeledWedge)
    Check.engineVsOracle(spark, g, labeledTriangle)
  }

  test("labeled pattern on unlabeled graph is rejected") {
    assertThrows[IllegalArgumentException] {
      MatchEngine.countMatches(er, Patterns.generateChain(2).addLabel(1, 0))
    }
  }
}
