package repro.plan

import org.scalatest.funsuite.AnyFunSuite
import repro.pattern.{Automorphism, Pattern, Patterns}

class PlannerSpec extends AnyFunSuite {

  private val diamond = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (2, 4))

  test("diamond plan matches the §4.1 walkthrough") {
    val plan = Planner.plan(diamond)
    assert(plan.partialOrders.toSet == Set((1, 3), (2, 4)))
    assert(plan.core == Set(2, 4))
    assert(plan.multiplicity == 4)
  }

  test("join order starts in the core and is connectivity-respecting") {
    for (k <- 2 to 5; p <- Patterns.generateAllVertexInduced(k)) {
      val plan = Planner.plan(p)
      val order = plan.joinOrder
      assert(order.take(plan.core.size).toSet == plan.core)
      for (i <- 1 until order.size)
        assert(order.take(i).exists(w => p.areConnected(order(i), w)),
          s"vertex ${order(i)} not anchored in $p (order $order)")
      assert(order.toSet == p.regularVertices.toSet)
    }
  }

  test("plan rejects patterns with a disconnected regular part") {
    val disconnected = Pattern(Vector(1, 2, 3, 4), Set((1, 2), (3, 4)), Set.empty, Map.empty)
    assertThrows[IllegalArgumentException](Planner.plan(disconnected))
  }

  test("plan rejects anti-vertex anti-adjacent to an anti-vertex") {
    val p = Pattern(Vector(1, 2, 3, 4), Set((1, 2)), Set((1, 3), (3, 4), (2, 4)), Map.empty)
    assertThrows[IllegalArgumentException](Planner.plan(p))
  }

  test("plan handles anti-vertex patterns (p7)") {
    val p7 = Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(2, 4).addAntiEdge(3, 4)
    val plan = Planner.plan(p7)
    assert(!plan.core(4))
    assert(plan.joinOrder.toSet == Set(1, 2, 3))
    assert(plan.multiplicity == 6)
  }

  test("plan handles anti-edge patterns (p8)") {
    val p8 = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (1, 3)).addAntiEdge(2, 4)
    val plan = Planner.plan(p8)
    // One endpoint of the anti-edge must be in the core.
    assert(plan.core(2) || plan.core(4))
    assert(plan.joinOrder.size == 4)
  }

  test("plan of single-vertex and single-edge patterns") {
    val pv = Planner.plan(Pattern.singleton())
    assert(pv.core == Set(1) && pv.joinOrder == Vector(1))
    val pe = Planner.plan(Patterns.generateChain(2))
    assert(pe.core.size == 1 && pe.joinOrder.size == 2)
  }

  test("multiplicity matches automorphism counts for plain patterns") {
    assert(Planner.plan(Patterns.generateStar(3)).multiplicity == 6)
    assert(Planner.plan(Patterns.generateChain(4)).multiplicity == 2)
    assert(Planner.plan(diamond).multiplicity == 4)
    val antiSamples = Seq(
      Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(2, 4).addAntiEdge(3, 4),
      Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(3, 4),
      Patterns.generateChain(3).addAntiEdge(1, 3),
      Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (1, 3)).addAntiEdge(2, 4),
      Patterns.generateStar(3).addAntiEdge(2, 3)
    )
    for (p <- (2 to 5).flatMap(Patterns.generateAllVertexInduced) ++ antiSamples)
      assert(Planner.plan(p).multiplicity == Automorphism.regularMultiplicity(p), s"pattern $p")
  }

  test("14-clique plan: multiplicity 14! and a total order") {
    val plan = Planner.plan(Patterns.generateClique(14))
    assert(plan.multiplicity == 87178291200L)
    assert(plan.orderClosure.size == 91)
    for (a <- 1 to 14; b <- a + 1 to 14) assert(plan.orderClosure((a, b)), s"($a,$b)")
  }

  test("large patterns plan without enumerating permutations") {
    val cycle12 = Pattern.fromEdges(((1 to 11).map(i => (i, i + 1)) :+ ((12, 1))): _*)
    for (p <- (10 to 14).map(Patterns.generateClique) ++ Seq(cycle12, Patterns.generateStar(11))) {
      val t0 = System.nanoTime()
      Planner.plan(p)
      val secs = (System.nanoTime() - t0) / 1e9
      assert(secs <= 2.0, s"planning $p took $secs s")
    }
  }
}
