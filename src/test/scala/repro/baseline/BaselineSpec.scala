package repro.baseline

import repro.{Check, SparkSpec, TestGraphs}
import repro.apps.{EvalPatterns, MotifCount}
import repro.core.{MatchEngine, MniSupport}
import repro.graph.{Csr, DataGraph}
import repro.pattern.{Pattern, Patterns}

/** The pattern-unaware baselines must produce the SAME results as the
  * engine (they are correct, just wasteful); their instrumentation must
  * exhibit the Fig 1 blowup shape.
  */
class BaselineSpec extends SparkSpec {

  private lazy val edges = TestGraphs.er(35, 100, seed = 91)
  private lazy val g: DataGraph = TestGraphs.dataGraph(spark, edges)
  private lazy val labEdges = TestGraphs.er(30, 80, seed = 92)
  private lazy val labels = TestGraphs.labels(30, 3, seed = 93)
  private lazy val lg: DataGraph = TestGraphs.dataGraph(spark, labEdges, labels)

  /** `lg`, and the same graph with every third vertex unlabeled. */
  private lazy val labeledGraphs: Seq[(String, DataGraph)] = Seq(
    "labeled" -> lg,
    "partly labeled" -> TestGraphs.dataGraph(spark, labEdges, labels.filter { case (v, _) => v % 3 != 0 })
  )

  private def keyed(ps: Seq[(Pattern, Long)]): Map[String, Long] = ps.map { case (p, s) => (Check.key(p), s) }.toMap

  /** The engine's label-discovery supports of every connected `k`-edge shape. */
  private def engineFsm(g: DataGraph, k: Int): Map[String, Long] =
    keyed(Patterns.generateAllEdgeInduced(k).flatMap(MniSupport.labeledSupports(g, _)))

  private def engineMotifKeys(size: Int): Map[String, Long] =
    MotifCount.count(g, size).filter(_._2 > 0).map { case (p, n) => (Check.key(p), n) }.toMap

  test("BFS (Arabesque mode) 3-motif counts equal the engine's") {
    val (counts, profile) = BfsEnumerator.motifCounts(g, 3, rstream = false)
    assert(counts == engineMotifKeys(3))
    assert(profile.explored >= counts.values.sum)
    assert(profile.canonicality > 0 && profile.isomorphism > 0)
  }

  test("BFS (RStream mode) 3-motif counts equal the engine's") {
    val (counts, profile) = BfsEnumerator.motifCounts(g, 3, rstream = true)
    assert(counts == engineMotifKeys(3))
    assert(profile.explored >= counts.values.sum)
  }

  test("RStream mode explores at least as much as Arabesque mode (ordering blowup)") {
    val (_, abq) = BfsEnumerator.motifCounts(g, 3, rstream = false)
    val (_, rs) = BfsEnumerator.motifCounts(g, 3, rstream = true)
    assert(rs.explored >= abq.explored)
  }

  test("BFS 4-motif counts equal the engine's") {
    val (counts, _) = BfsEnumerator.motifCounts(g, 4, rstream = false)
    assert(counts == engineMotifKeys(4))
  }

  test("BFS clique counts equal the engine's, in both modes") {
    for (rstream <- Seq(false, true); k <- 3 to 4) {
      val (n, profile) = BfsEnumerator.cliqueCount(g, k, rstream)
      assert(n == MatchEngine.countMatches(g, Patterns.generateClique(k)), s"k=$k rstream=$rstream")
      assert(profile.explored >= n)
    }
  }

  test("DFS (Fractal mode) motif counts equal the engine's") {
    val (c3, p3) = DfsEnumerator.motifCounts(g, 3)
    assert(c3 == engineMotifKeys(3))
    assert(p3.explored > 0 && p3.isomorphism > 0)
    val (c4, _) = DfsEnumerator.motifCounts(g, 4)
    assert(c4 == engineMotifKeys(4))
  }

  test("DFS clique counts equal the engine's with zero isomorphism checks (native)") {
    for (k <- 3 to 5) {
      val (n, profile) = DfsEnumerator.cliqueCount(g, k)
      assert(n == MatchEngine.countMatches(g, Patterns.generateClique(k)), s"k=$k")
      assert(profile.isomorphism == 0)
    }
  }

  test("DFS pattern matching equals the engine on p1/p4/p5") {
    for ((name, p) <- EvalPatterns.numbered if p.labels.isEmpty && p.regularVertices.size <= 5) {
      val (n, profile) = DfsEnumerator.countPattern(g, p)
      assert(n == MatchEngine.countMatches(g, p), name)
      assert(profile.isomorphism > 0, name)
    }
  }

  test("DFS pattern matching equals the engine on labeled p2") {
    val labels6 = TestGraphs.labels(30, 6, seed = 94)
    val g6 = TestGraphs.dataGraph(spark, labEdges, labels6)
    val (n, _) = DfsEnumerator.countPattern(g6, EvalPatterns.p2)
    assert(n == MatchEngine.countMatches(g6, EvalPatterns.p2))
  }

  test("BFS FSM supports equal the engine's label-discovery supports (1 and 2 edges)") {
    for ((what, lg) <- labeledGraphs; k <- 1 to 2) {
      val (got, profile) = BfsEnumerator.fsmSupports(lg, k)
      assert(keyed(got) == engineFsm(lg, k), s"$what k=$k")
      if (k > 1) assert(profile.explored > 0)
      assert(profile.isomorphism > 0)
    }
  }

  test("DFS FSM supports equal BFS FSM supports (3 edges)") {
    for ((what, lg) <- labeledGraphs) {
      val (bfs, _) = BfsEnumerator.fsmSupports(lg, 3)
      val (dfs, profile) = DfsEnumerator.fsmSupports(lg, 3)
      assert(keyed(dfs) == keyed(bfs), what)
      assert(keyed(dfs) == engineFsm(lg, 3), what)
      assert(profile.isomorphism > 0)
    }
  }

  test("DFS explores each connected set once: ESU tallies against the engine's counts") {
    for (k <- 3 to 5)
      assert(DfsEnumerator.cliqueCount(g, k)._2.explored ==
        (1 to k).map(j => MatchEngine.countMatches(g, Patterns.generateClique(j))).sum, s"cliques k=$k")
    for (k <- 3 to 4)
      assert(DfsEnumerator.motifCounts(g, k)._2.explored == (1 to k).map(MotifCount.total(g, _)).sum, s"motifs k=$k")
    for (k <- 1 to 3)
      assert(DfsEnumerator.fsmSupports(lg, k)._2.explored ==
        (1 to k).flatMap(Patterns.generateAllEdgeInduced).map(MatchEngine.countMatches(lg, _)).sum, s"edges k=$k")
  }

  test("G-Miner triangle count equals the engine's") {
    assert(GMinerStyle.triangleCount(g) == MatchEngine.countMatches(g, Patterns.generateClique(3)))
    val sk = TestGraphs.dataGraph(spark, TestGraphs.skewed(50, 160, seed = 95))
    assert(GMinerStyle.triangleCount(sk) == MatchEngine.countMatches(sk, Patterns.generateClique(3)))
  }

  test("G-Miner p2 count equals the engine's") {
    val labels6 = TestGraphs.labels(30, 6, seed = 94)
    val g6 = TestGraphs.dataGraph(spark, labEdges, labels6)
    val got = GMinerStyle.countP2(g6, 0, 1, 2, 3)
    assert(got == MatchEngine.countMatches(g6, EvalPatterns.p2))
  }

  test("baselines leave no persisted RDD behind") {
    def persisted = spark.sparkContext.getPersistentRDDs.keySet
    def noLeak(call: String)(f: => Any): Unit = {
      val before = persisted
      f
      assert(persisted == before, call)
    }
    for (rstream <- Seq(false, true)) {
      noLeak(s"BFS 3-motifs rstream=$rstream")(BfsEnumerator.motifCounts(g, 3, rstream))
      noLeak(s"BFS 3-cliques rstream=$rstream")(BfsEnumerator.cliqueCount(g, 3, rstream))
    }
    for (k <- 1 to 3; tau <- Seq(None, Some(2L)))
      noLeak(s"BFS FSM k=$k tau=$tau")(BfsEnumerator.fsmSupports(lg, k, tau))
    noLeak("DFS 3-motifs")(DfsEnumerator.motifCounts(g, 3))
    noLeak("DFS 3-cliques")(DfsEnumerator.cliqueCount(g, 3))
    noLeak("DFS p1")(DfsEnumerator.countPattern(g, EvalPatterns.p1))
    noLeak("DFS FSM")(DfsEnumerator.fsmSupports(lg, 2))
    noLeak("G-Miner triangles")(GMinerStyle.triangleCount(g))
    noLeak("G-Miner p2")(GMinerStyle.countP2(lg, 0, 1, 2, 0))
  }

  test("Fig 1 shape: baselines explore far more than the result size") {
    val triangles = MatchEngine.countMatches(g, Patterns.generateClique(3))
    val (_, abq) = BfsEnumerator.cliqueCount(g, 3, rstream = false)
    val (_, rs) = BfsEnumerator.cliqueCount(g, 3, rstream = true)
    val (_, fcl) = DfsEnumerator.cliqueCount(g, 3)
    assert(abq.explored > triangles)
    assert(rs.explored > triangles)
    assert(fcl.explored > triangles)
  }

  test("IsoCheck canonical sequence is the greedy order") {
    val packed = g.edges.collect().map(r => (r.getLong(0) << 32) | r.getLong(1))
    val csr = Csr.fromPackedEdges(g.numVertices.toInt, packed)
    val some = g.adj.limit(1).collect().head
    val (a, b) = (some.getLong(0), some.getLong(1))
    assert(IsoCheck.isCanonicalSeq(Seq(math.min(a, b), math.max(a, b)), csr))
    assert(!IsoCheck.isCanonicalSeq(Seq(math.max(a, b), math.min(a, b)), csr))
  }

  test("IsoCheck spanning embeddings of a triangle in a triangle = 6") {
    val triangle = Csr.fromPackedEdges(3, Array((0L << 32) | 1L, (1L << 32) | 2L, (0L << 32) | 2L))
    assert(IsoCheck.countSpanningEmbeddings(Patterns.generateClique(3), Seq(0L, 1L, 2L), triangle, null) == 6)
    assert(IsoCheck.countSpanningEmbeddings(Patterns.generateChain(3), Seq(0L, 1L, 2L), triangle, null) == 6)
  }
}
