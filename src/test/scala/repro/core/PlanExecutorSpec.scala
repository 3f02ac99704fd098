package repro.core

import repro.{LocalRef, SparkSpec, TestGraphs}
import repro.apps.EvalPatterns
import repro.graph.DataGraph
import repro.pattern.{Pattern, Patterns}
import repro.plan.Planner

/** The CSR plan executor against the brute-force reference, with symmetry
  * breaking on and off, plus boundary graphs.
  */
class PlanExecutorSpec extends SparkSpec {

  private lazy val erEdges = TestGraphs.er(30, 80, seed = 71)
  private lazy val skEdges = TestGraphs.skewed(40, 110, seed = 72)
  private lazy val labEdges = TestGraphs.er(30, 80, seed = 73)
  private lazy val labLabels = TestGraphs.labels(30, 3, seed = 74)

  private val pe = Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(3, 4)

  /** Connected 2–5-vertex motifs in their Theorem 3.1 forms, p7, p8, pe. */
  private val unlabeled: Seq[Pattern] =
    (2 to 5).flatMap(Patterns.generateAllVertexInduced).map(VertexInduced.toEdgeInduced) ++
      Seq(EvalPatterns.p7, EvalPatterns.p8, pe)

  private val labeled: Seq[Pattern] = Seq(
    Patterns.generateChain(2).addLabel(1, 0).addLabel(2, 1),
    Patterns.generateChain(2).addLabel(1, 0).addLabel(2, 0),
    Patterns.generateChain(3).addLabel(1, 2),
    Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (2, 4)).addLabel(1, 0).addLabel(3, 0),
    Patterns.generateClique(3).addLabel(1, 0).addLabel(2, 1).addLabel(3, 2),
    EvalPatterns.p7.addLabel(1, 1)
  )

  /** Executor and `LocalRef` agree on `p`: without symmetry breaking the
    * executor finds every isomorphism, with it one match per subgraph.
    */
  private def agree(g: DataGraph, ref: LocalRef.Graph, p: Pattern): Unit = {
    val plan = Planner.plan(p)
    val isos = LocalRef.allIsomorphisms(p, ref)
    val expected = LocalRef.canonicalCount(p, isos)
    assert(PlanExecutor.run(g, plan, symmetry = false).count == isos.size, s"$p symmetry=false")
    assert(PlanExecutor.run(g, plan, symmetry = true).count == expected, s"$p symmetry=true")
    for (symmetry <- Seq(true, false))
      assert(MatchEngine.countMatches(g, p, symmetry) == expected, s"$p symmetry=$symmetry")
  }

  test("executor agrees with LocalRef on er") {
    val g = TestGraphs.dataGraph(spark, erEdges)
    unlabeled.foreach(agree(g, LocalRef.graph(erEdges), _))
  }

  test("executor agrees with LocalRef on sk") {
    val g = TestGraphs.dataGraph(spark, skEdges)
    unlabeled.foreach(agree(g, LocalRef.graph(skEdges), _))
  }

  test("executor agrees with LocalRef on a labeled graph") {
    val g = TestGraphs.dataGraph(spark, labEdges, labLabels)
    (unlabeled ++ labeled).foreach(agree(g, LocalRef.graph(labEdges, labLabels), _))
  }

  test("accepted counts partial matches per join-order position") {
    val g = TestGraphs.dataGraph(spark, TestGraphs.k4Pendant)
    val r = PlanExecutor.run(g, Planner.plan(Patterns.generateClique(4)))
    // 5 roots; 7 edges; 4 triangles; 1 four-clique.
    assert(r.accepted == Vector(5L, 7L, 4L, 1L))
    assert(r.count == 1)
  }

  test("graphs with no edge and with one edge") {
    val empty = TestGraphs.dataGraph(spark, Seq.empty)
    val single = TestGraphs.dataGraph(spark, Seq((3L, 9L)))
    val edge = Patterns.generateChain(2)
    assert(MatchEngine.countMatches(empty, edge) == 0)
    assert(!Existence.exists(empty, edge))
    assert(MatchEngine.countMatches(single, edge) == 1)
    assert(Existence.exists(single, edge))
    assert(!Existence.exists(single, Patterns.generateClique(3)))
  }
}
