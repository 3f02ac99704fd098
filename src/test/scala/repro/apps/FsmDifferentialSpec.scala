package repro.apps

import repro.{LocalRef, SparkSpec, TestGraphs}
import repro.core.MniSupport
import repro.graph.DataGraph
import repro.pattern.{CanonicalForm, Pattern, Patterns}

/** FSM up to 3 edges, with symmetry breaking on and off, against two
  * references on seeded small labeled graphs: the unpruned label discovery
  * (`MniSupport.labeledSupports` over every edge-induced shape, with no
  * admissibility) and the brute-force `LocalRef.mniSupport` of every
  * labeling. The thresholds sit on the bounds the executor's frontier
  * pruning tests: a label's vertex count, one above it, a frequent labeled
  * edge's support, and 1.
  */
class FsmDifferentialSpec extends SparkSpec {

  private val nLabels = 3
  private val maxEdges = 3

  /** Labels 0 (half the vertices), 1 and 2 for ids 0 until `nV`, drawn from `seed`. */
  private def skewedLabels(nV: Int, seed: Long): Map[Long, Int] = {
    val rnd = new scala.util.Random(seed)
    (0L until nV).map { v =>
      val x = rnd.nextDouble()
      v -> (if (x < 0.5) 0 else if (x < 0.8) 1 else 2)
    }.toMap
  }

  /** Every fully labeled variant over labels 0 until `nLabels` of each `k`-edge shape. */
  private lazy val variants: Map[Int, Seq[Pattern]] = (1 to maxEdges).map { k =>
    def assign(p: Pattern, rest: List[Int]): Seq[Pattern] = rest match {
      case Nil       => Seq(p)
      case v :: tail => (0 until nLabels).flatMap(l => assign(p.addLabel(v, l), tail))
    }
    k -> Patterns.generateAllEdgeInduced(k).flatMap(s => CanonicalForm.distinct(assign(s, s.regularVertices.toList)))
  }.toMap

  private def keyed(ps: Seq[(Pattern, Long)]): Map[String, Long] =
    ps.map { case (p, s) => (CanonicalForm.key(p), s) }.toMap

  /** Per edge count, the support of every labeled pattern present, by both references. */
  private final class Reference(val unpruned: Map[Int, Map[String, Long]], val local: Map[Int, Seq[(Pattern, Long)]])

  private def reference(g: DataGraph, r: LocalRef.Graph): Reference = new Reference(
    (1 to maxEdges).map { k =>
      k -> keyed(Patterns.generateAllEdgeInduced(k).flatMap(MniSupport.labeledSupports(g, _, admissible = None)))
    }.toMap,
    variants.map { case (k, ps) => k -> ps.map(p => (p, LocalRef.mniSupport(p, r))).filter(_._2 > 0) }
  )

  /** `Fsm.run` at `tau`, with and without symmetry breaking, equals both references at every level. */
  private def agree(what: String, g: DataGraph, ref: Reference, tau: Long): Unit =
    for (symmetry <- Seq(true, false)) {
      val fsm = Fsm.run(spark, g, maxEdges, tau, symmetry)
      for (e <- 1 to maxEdges) {
        val at = s"$what tau=$tau symmetry=$symmetry edges=$e"
        val expected = ref.unpruned(e).filter(_._2 >= tau)
        assert(keyed(fsm.atSize(e)) == expected, at)
        assert(keyed(ref.local(e).filter(_._2 >= tau)) == expected, at)
      }
    }

  /** The graph of `edges` and `labels` with its references, which must agree with each other. */
  private def setUp(what: String, edges: Seq[(Long, Long)], labels: Map[Long, Int]): (DataGraph, Reference) = {
    val g = TestGraphs.dataGraph(spark, edges, labels)
    val ref = reference(g, LocalRef.graph(edges, labels))
    for (e <- 1 to maxEdges) assert(ref.unpruned(e) == keyed(ref.local(e)), s"$what edges=$e")
    (g, ref)
  }

  for (seed <- Seq(1401L, 1402L)) test(s"FSM equals both references at the frontier's bounds (seed $seed)") {
    info(s"seed $seed")
    val edges = TestGraphs.er(30, 90, seed)
    val labels = skewedLabels(30, seed + 1)
    val (g, ref) = setUp(s"seed $seed", edges, labels)
    val vs = LocalRef.graph(edges).vertices.toSet
    val counts = labels.filter(lv => vs(lv._1)).groupMapReduce(_._2)(_ => 1L)(_ + _)
    val supports = ref.local.values.flatten.toSeq
    // A label count that a pattern carrying the label reaches exactly.
    val atCount = counts.collect {
      case (l, n) if supports.exists { case (p, s) => s == n && p.labels.values.exists(_ == l) } => n
    }
    assert(atCount.nonEmpty, s"seed $seed: no pattern's support equals a count of its labels $counts")
    // A frequent labeled edge's support that a 2-edge pattern also reaches.
    val atEdge = ref.local(1).map(_._2).filter(s => ref.local(2).exists(_._2 >= s))
    assert(atEdge.nonEmpty, s"seed $seed")
    for (tau <- Seq(atCount.max, atCount.max + 1, atEdge.max, 1L).distinct)
      agree(s"seed $seed", g, ref, tau)
    g.unpersist()
  }

  test("FSM equals both references when every third vertex is unlabeled") {
    val seed = 1403L
    info(s"seed $seed")
    val edges = TestGraphs.er(30, 90, seed)
    val labels = skewedLabels(30, seed + 1).filter { case (v, _) => v % 3 != 0 }
    val (g, ref) = setUp(s"seed $seed", edges, labels)
    val counts = labels.values.groupMapReduce(identity)(_ => 1L)(_ + _).values
    for (tau <- (Seq(1L, ref.local(1).map(_._2).max) ++ counts).distinct)
      agree(s"seed $seed, every third vertex unlabeled", g, ref, tau)
    g.unpersist()
  }

  test("FSM on a labeled graph with no edges finds nothing") {
    val labels = skewedLabels(30, 1404L)
    val (g, ref) = setUp("no edges", Seq.empty, labels)
    assert(ref.unpruned.values.forall(_.isEmpty))
    for (tau <- Seq(0L, 1L)) agree("no edges", g, ref, tau)
  }
}
