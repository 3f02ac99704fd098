package repro.core

import repro.{LocalRef, SparkSpec, TestGraphs}
import repro.apps.{EvalPatterns, Fsm}
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

  private def tasks = spark.sparkContext.defaultParallelism

  /** K1,n: hub 0 joined to leaves 1..n. */
  private def star(n: Int): Seq[(Long, Long)] = (1 to n).map(i => (0L, i.toLong))

  private val small: Seq[Pattern] = Seq(
    Patterns.generateChain(1),
    Patterns.generateChain(2),
    Patterns.generateChain(3),
    Patterns.generateStar(3),
    Patterns.generateClique(3)
  )

  test("a star whose hub holds more first-level pairs than two per task") {
    val es = star(2 * tasks + 3)
    val g = TestGraphs.dataGraph(spark, es)
    small.foreach(agree(g, LocalRef.graph(es), _))
    g.unpersist()
  }

  test("graphs with fewer first-level pairs than tasks") {
    // With symmetry breaking one edge has 1 pair and a triangle 3.
    for (es <- Seq(Seq((3L, 9L)), Seq((1L, 2L), (2L, 3L), (1L, 3L)))) {
      val g = TestGraphs.dataGraph(spark, es)
      small.foreach(agree(g, LocalRef.graph(es), _))
      g.unpersist()
    }
  }

  test("accepted counts each root once on a star") {
    val n = 2 * tasks + 3
    val g = TestGraphs.dataGraph(spark, star(n))
    val plan = Planner.plan(Patterns.generateStar(3))
    assert(plan.joinOrder == Vector(1, 2, 3, 4))
    // Every vertex is a root; the hub's n leaves and each leaf's hub pass
    // position 1; only the hub's pairs go further, through 2 then 3 distinct
    // leaves, ordered when symmetry is broken.
    val pairs = n.toLong * (n - 1)
    assert(PlanExecutor.run(g, plan).accepted == Vector(n + 1L, 2L * n, pairs / 2, pairs * (n - 2) / 6))
    assert(PlanExecutor.run(g, plan, symmetry = false).accepted == Vector(n + 1L, 2L * n, pairs, pairs * (n - 2)))
    g.unpersist()
  }

  test("exists and countAtLeast on a star") {
    val n = 2 * tasks + 3
    val g = TestGraphs.dataGraph(spark, star(n))
    val edge = Patterns.generateChain(2)
    val star3 = Patterns.generateStar(3)
    val star3s = n.toLong * (n - 1) * (n - 2) / 6
    assert(Existence.exists(g, star3))
    assert(Existence.countAtLeast(g, star3, star3s))
    assert(!Existence.countAtLeast(g, star3, star3s + 1))
    assert(Existence.countAtLeast(g, edge, n))
    assert(!Existence.countAtLeast(g, edge, n + 1L))
    assert(!Existence.exists(g, Patterns.generateClique(3)))
    g.unpersist()
  }

  test("a query runs one job of defaultParallelism tasks and persists nothing") {
    val sc = spark.sparkContext
    val g = TestGraphs.dataGraph(spark, labEdges, labLabels)
    g.csr
    g.labelArray
    val before = sc.getPersistentRDDs.keySet
    val wedge = Planner.plan(Patterns.generateChain(3))
    val admit = new PlanExecutor.Admissible(Seq(0, 1), Some(Seq((0, 1), (1, 1))))
    // (what, jobs it runs: one per pattern matched, query)
    val queries: Seq[(String, Int, () => Any)] = Seq(
      ("run", 1, () => PlanExecutor.run(g, wedge)),
      ("run without symmetry", 1, () => PlanExecutor.run(g, wedge, symmetry = false)),
      ("single vertex", 1, () => PlanExecutor.run(g, Planner.plan(Patterns.generateChain(1)))),
      ("domains", 1, () => PlanExecutor.domains(g, wedge, symmetry = true, None)),
      ("domains with admissible labels", 1, () => PlanExecutor.domains(g, wedge, symmetry = true, Some(admit))),
      ("exists", 1, () => Existence.exists(g, Patterns.generateClique(3))),
      ("labeledSupports", 1, () => MniSupport.labeledSupports(g, Patterns.generateChain(2), admissible = None)),
      ("fsm", 1, () => Fsm.run(spark, g, maxEdges = 1, threshold = 1)),
      // The edge, then the wedge under the frequent edges' label pairs.
      ("fsm to 2 edges", 2, () => Fsm.run(spark, g, maxEdges = 2, threshold = 2))
    )
    for ((what, expected, query) <- queries) {
      val (_, jobs) = jobsDuring(query())
      assert(jobs.size == expected, what)
      for (job <- jobs) {
        assert(job.stageInfos.map(_.numTasks) == Seq(sc.defaultParallelism), what)
        // The job is submitted on the parallelized partitions themselves, with no mapped RDD.
        assert(job.stageInfos.head.rddInfos.size == 1, what)
      }
      assert(sc.getPersistentRDDs.keySet == before, what)
    }
    assert(Fsm.run(spark, g, maxEdges = 2, threshold = 2).atSize(2).nonEmpty)
    g.unpersist()
  }

  /** Whether the label sequence `ls` (over `p.regularVertices`) has every
    * label in `labels` and every edge's label pair in `pairs`, if given.
    */
  private def admitted(p: Pattern, labels: Set[Int], pairs: Option[Set[(Int, Int)]])(ls: Seq[Int]): Boolean = {
    val at = p.regularVertices.zip(ls).toMap
    ls.forall(labels) && pairs.forall(ps => p.edges.forall { case (u, v) => ps(at(u), at(v)) || ps(at(v), at(u)) })
  }

  test("domains with admissible labels are the unpruned domains of the admitted label sequences") {
    val partial = labLabels.filter { case (v, _) => v % 3 != 0 }
    val admissibles: Seq[(Set[Int], Option[Set[(Int, Int)]])] = Seq(
      (Set(0, 1, 2), None),
      (Set(0, 2), None),
      (Set(0, 1, 2), Some(Set((0, 1), (2, 2)))),
      (Set(0, 1), Some(Set((1, 0), (1, 1), (0, 2)))), // a pair with an inadmissible label
      (Set(0, 1, 2), Some(Set.empty)),
      (Set.empty, None)
    )
    for (ls <- Seq(labLabels, partial)) {
      val g = TestGraphs.dataGraph(spark, labEdges, ls)
      for (p <- Seq(Patterns.generateChain(2), Patterns.generateChain(3), Patterns.generateClique(3));
           symmetry <- Seq(true, false)) {
        val plan = Planner.plan(p)
        val all = PlanExecutor.domains(g, plan, symmetry, None)
        assert(all.nonEmpty, s"$p")
        for ((labels, pairs) <- admissibles) {
          val what = s"$p symmetry=$symmetry labels=$labels pairs=$pairs"
          val got = PlanExecutor.domains(g, plan, symmetry, Some(new PlanExecutor.Admissible(labels, pairs)))
          val expected = all.filter { case (seq, _) => admitted(p, labels, pairs)(seq) }
          assert(got.keySet == expected.keySet, what)
          for ((seq, doms) <- got) assert(doms.toSeq == expected(seq).toSeq, s"$what at $seq")
        }
      }
      g.unpersist()
    }
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
