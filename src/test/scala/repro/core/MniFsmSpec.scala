package repro.core

import repro.{LocalRef, SparkSpec, TestGraphs}
import repro.apps.Fsm
import repro.pattern.{CanonicalForm, InducedSubgraph, Pattern, Patterns}

/** MNI support (§2.1/§5.5) and FSM with dynamic label discovery (§3.2.1),
  * verified against the local brute-force reference.
  */
class MniFsmSpec extends SparkSpec {

  private val nV = 30
  private lazy val edges = TestGraphs.er(nV, 70, seed = 41)
  private lazy val labels = TestGraphs.labels(nV, 3, seed = 42)
  private lazy val g = TestGraphs.dataGraph(spark, edges, labels)
  private lazy val ref = LocalRef.graph(edges, labels)

  /** All fully-labeled variants of `shape` over labels 0..2 (reference). */
  private def labeledVariants(shape: Pattern): Seq[Pattern] = {
    val reg = shape.regularVertices
    def assign(p: Pattern, rest: List[Int]): Seq[Pattern] = rest match {
      case Nil => Seq(p)
      case v :: tail => (0 until 3).flatMap(l => assign(p.addLabel(v, l), tail))
    }
    CanonicalForm.distinct(assign(shape, reg.toList))
  }

  /** Supports keyed by canonical form. */
  private def keyed(ps: Seq[(Pattern, Long)]): Map[String, Long] =
    ps.map { case (p, s) => (CanonicalForm.key(p), s) }.toMap

  /** Brute-force supports of the labeled variants of `shape` in `r` that
    * reach `tau`, keyed by canonical form.
    */
  private def bruteForce(shape: Pattern, r: LocalRef.Graph, tau: Long): Map[String, Long] =
    labeledVariants(shape)
      .map(p => (CanonicalForm.key(p), LocalRef.mniSupport(p, r)))
      .filter(_._2 >= tau)
      .toMap

  test("support of fully labeled edges matches brute-force MNI") {
    for (p <- labeledVariants(Patterns.generateChain(2))) {
      assert(MniSupport.support(g, p) == LocalRef.mniSupport(p, ref), s"pattern $p")
    }
  }

  test("support of labeled wedges matches brute-force MNI") {
    for (p <- labeledVariants(Patterns.generateChain(3)).take(10)) {
      assert(MniSupport.support(g, p) == LocalRef.mniSupport(p, ref), s"pattern $p")
    }
  }

  test("support of the unlabeled triangle uses orbit-merged domains") {
    val p = Patterns.generateClique(3)
    val unlabeled = TestGraphs.dataGraph(spark, edges)
    assert(MniSupport.support(unlabeled, p) == LocalRef.mniSupport(p, LocalRef.graph(edges)))
  }

  test("labeledSupports discovers exactly the labeled patterns present") {
    val shape = Patterns.generateChain(2)
    val discovered = MniSupport.labeledSupports(g, shape, admissible = None)
    val expected = labeledVariants(shape)
      .map(p => (CanonicalForm.key(p), LocalRef.mniSupport(p, ref)))
      .filter(_._2 > 0)
      .toMap
    val got = discovered.map { case (p, s) => (CanonicalForm.key(p), s) }.toMap
    assert(got == expected)
  }

  test("labeledSupports on wedges matches brute force") {
    val shape = Patterns.generateChain(3)
    val got = MniSupport.labeledSupports(g, shape, admissible = None)
      .map { case (p, s) => (CanonicalForm.key(p), s) }.toMap
    val expected = labeledVariants(shape)
      .map(p => (CanonicalForm.key(p), LocalRef.mniSupport(p, ref)))
      .filter(_._2 > 0)
      .toMap
    assert(got == expected)
  }

  test("labeledSupports respects pre-assigned labels") {
    val shape = Patterns.generateChain(3).addLabel(2, 1) // center fixed to label 1
    val got = MniSupport.labeledSupports(g, shape, admissible = None)
    assert(got.nonEmpty)
    for ((p, s) <- got) {
      assert(p.fullyLabeled)
      assert(s == LocalRef.mniSupport(p, ref), s"pattern $p")
    }
  }

  test("labeledSupports with one chain end pre-labeled matches brute force") {
    // A labeling that repeats the pre-set label at the other end gains the
    // end swap, which the pre-labeled input's own group does not have. (Its
    // orbits merge domains that are equal already: with no symmetry to
    // break, the executor finds both orientations of each such match.)
    for (l <- 0 until 3) {
      val got = MniSupport.labeledSupports(g, Patterns.generateChain(3).addLabel(1, l), admissible = None)
      assert(got.exists { case (p, _) => p.labels(3) == l }, s"label $l")
      for ((p, s) <- got)
        assert(s == LocalRef.mniSupport(p, ref), s"pattern $p")
    }
  }

  test("MNI on a labeled graph in which some vertices have no label") {
    val partial = labels.filter { case (v, _) => v % 3 != 0 }
    val pg = TestGraphs.dataGraph(spark, edges, partial)
    val pref = LocalRef.graph(edges, partial)
    for (shape <- Seq(Patterns.generateChain(2), Patterns.generateChain(3)))
      assert(keyed(MniSupport.labeledSupports(pg, shape, admissible = None)) == bruteForce(shape, pref, 1),
        s"shape $shape")
    for (p <- labeledVariants(Patterns.generateChain(2)))
      assert(MniSupport.support(pg, p) == LocalRef.mniSupport(p, pref), s"pattern $p")
    val fsm = Fsm.run(spark, pg, maxEdges = 2, threshold = 3)
    assert(keyed(fsm.atSize(2)) == bruteForce(Patterns.generateChain(3), pref, 3))
  }

  test("FSM keeps a pattern whose support is exactly the threshold and drops it above") {
    val all = bruteForce(Patterns.generateChain(2), ref, 1)
    val s = all.values.max
    val kept = keyed(Fsm.run(spark, g, maxEdges = 1, threshold = s).atSize(1))
    assert(kept.nonEmpty && kept == all.filter(_._2 >= s))
    assert(Fsm.run(spark, g, maxEdges = 1, threshold = s + 1).atSize(1).isEmpty)
  }

  test("MNI on a labeled graph with no edges is empty") {
    val empty = TestGraphs.dataGraph(spark, Seq.empty, labels)
    val eref = LocalRef.graph(Seq.empty, labels)
    val shape = Patterns.generateChain(2)
    assert(MniSupport.labeledSupports(empty, shape, admissible = None).isEmpty)
    assert(bruteForce(shape, eref, 1).isEmpty)
    for (p <- labeledVariants(shape))
      assert(MniSupport.support(empty, p) == 0 && LocalRef.mniSupport(p, eref) == 0, s"pattern $p")
    assert(Fsm.run(spark, empty, maxEdges = 2, threshold = 1).totalPatterns == 0)
  }

  test("labeledSupports on wedges is the same without symmetry breaking") {
    val shape = Patterns.generateChain(3)
    val expected = bruteForce(shape, ref, 1)
    assert(keyed(MniSupport.labeledSupports(g, shape, symmetry = true, admissible = None)) == expected)
    assert(keyed(MniSupport.labeledSupports(g, shape, symmetry = false, admissible = None)) == expected)
  }

  test("FSM frequent 1-edge patterns match brute force at several thresholds") {
    for (tau <- Seq(1L, 3L, 6L, 10L)) {
      val result = Fsm.run(spark, g, maxEdges = 1, threshold = tau)
      val got = result.atSize(1).map { case (p, s) => (CanonicalForm.key(p), s) }.toMap
      val expected = labeledVariants(Patterns.generateChain(2))
        .map(p => (CanonicalForm.key(p), LocalRef.mniSupport(p, ref)))
        .filter(_._2 >= tau)
        .toMap
      assert(got == expected, s"threshold $tau")
    }
  }

  test("FSM 2-edge frequent patterns match brute force") {
    val tau = 4L
    val result = Fsm.run(spark, g, maxEdges = 2, threshold = tau)
    val got = result.atSize(2).map { case (p, s) => (CanonicalForm.key(p), s) }.toMap
    val expected = labeledVariants(Patterns.generateChain(3))
      .map(p => (CanonicalForm.key(p), LocalRef.mniSupport(p, ref)))
      .filter(_._2 >= tau)
      .toMap
    assert(got == expected)
  }

  test("FSM anti-monotonicity: higher threshold yields a subset") {
    val lo = Fsm.run(spark, g, maxEdges = 2, threshold = 2)
    val hi = Fsm.run(spark, g, maxEdges = 2, threshold = 5)
    for (e <- 1 to 2) {
      val loKeys = lo.atSize(e).map(p => CanonicalForm.key(p._1)).toSet
      val hiKeys = hi.atSize(e).map(p => CanonicalForm.key(p._1)).toSet
      assert(hiKeys.subsetOf(loKeys))
    }
  }

  test("FSM without symmetry breaking finds the same frequent patterns") {
    val a = Fsm.run(spark, g, maxEdges = 2, threshold = 4, symmetry = true)
    val b = Fsm.run(spark, g, maxEdges = 2, threshold = 4, symmetry = false)
    for (e <- 1 to 2)
      assert(
        a.atSize(e).map { case (p, s) => (CanonicalForm.key(p), s) }.toSet ==
        b.atSize(e).map { case (p, s) => (CanonicalForm.key(p), s) }.toSet
      )
  }

  test("FSM 3-edge frequent patterns match brute force over the triangle, 4-path and 3-star") {
    val tau = 3L
    val got = keyed(Fsm.run(spark, g, maxEdges = 3, threshold = tau).atSize(3))
    val shapes = Patterns.generateAllEdgeInduced(3)
    assert(shapes.size == 3)
    val expected = shapes.map(bruteForce(_, ref, tau)).reduce(_ ++ _)
    assert(expected.nonEmpty && got == expected)
  }

  test("FSM 3-edge run completes and respects anti-monotone containment") {
    val result = Fsm.run(spark, g, maxEdges = 3, threshold = 3)
    // every frequent 3-edge pattern has a frequent 2-edge labeled subpattern
    val freq2 = result.atSize(2).map(p => CanonicalForm.key(p._1)).toSet
    for ((p, _) <- result.atSize(3)) {
      val subKeys = p.edges.map { case (u, v) =>
        val sub = p.removeEdge(u, v)
        val kept = sub.vertices.filter(x => sub.degree(x) > 0)
        CanonicalForm.key(InducedSubgraph(sub, kept.toSet))
      }
      assert(subKeys.exists(freq2), s"no frequent sub-pattern for $p")
    }
  }

  test("FSM reports each labeled pattern once per level") {
    for (symmetry <- Seq(true, false)) {
      val result = Fsm.run(spark, g, maxEdges = 3, threshold = 3, symmetry = symmetry)
      for (e <- 1 to 3) {
        val keys = result.atSize(e).map(p => CanonicalForm.key(p._1))
        assert(keys.nonEmpty, s"no frequent $e-edge pattern (symmetry=$symmetry)")
        assert(keys.distinct.size == keys.size, s"a $e-edge pattern is repeated (symmetry=$symmetry)")
      }
    }
  }

  test("FSM requires a labeled graph") {
    val unlabeled = TestGraphs.dataGraph(spark, edges)
    assertThrows[IllegalArgumentException](Fsm.run(spark, unlabeled, 2, 1))
  }
}
