package repro.plan

import org.scalatest.funsuite.AnyFunSuite
import repro.pattern.{BruteForceAutomorphism, Pattern, Patterns}

class SymmetryBreakingSpec extends AnyFunSuite {

  /** Core property (§4.1): the only automorphisms consistent with the
    * partial order act as the identity on regular vertices.
    */
  private def breaksAllSymmetries(p: Pattern): Unit = {
    val conds = SymmetryBreaking.breakSymmetry(p)._1
    val reg = p.regularVertices
    val surviving = BruteForceAutomorphism.all(p).filter { sigma =>
      // An automorphism is consistent iff composing any valid assignment
      // with it can still satisfy all conditions: σ maps condition (a,b) to
      // (σ(a),σ(b)), which must not contradict the order.
      val mapped = conds.map { case (a, b) => (sigma(a), sigma(b)) }
      val closure = SymmetryBreaking.closure(conds ++ mapped)
      !closure.exists { case (a, b) => closure.contains((b, a)) }
    }
    assert(surviving.forall(sigma => reg.forall(v => sigma(v) == v)),
      s"pattern $p: surviving non-identity automorphism with conds $conds")
  }

  test("diamond gets the Fig 6 partial order u1<u3, u2<u4") {
    val diamond = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (2, 4))
    val conds = SymmetryBreaking.breakSymmetry(diamond)._1.toSet
    assert(conds == Set((1, 3), (2, 4)))
  }

  test("triangle is fully ordered") {
    val conds = SymmetryBreaking.breakSymmetry(Patterns.generateClique(3))._1.toSet
    assert(conds == Set((1, 2), (1, 3), (2, 3)))
  }

  test("clique k gets a total order") {
    for (k <- 2 to 5) {
      val conds = SymmetryBreaking.breakSymmetry(Patterns.generateClique(k))._1
      assert(conds.size == k * (k - 1) / 2)
    }
  }

  test("path gets one condition (endpoints ordered)") {
    val conds = SymmetryBreaking.breakSymmetry(Patterns.generateChain(3))._1
    assert(conds == Seq((1, 3)))
  }

  test("star spokes are totally ordered, center free") {
    val conds = SymmetryBreaking.breakSymmetry(Patterns.generateStar(3))._1.toSet
    assert(conds == Set((2, 3), (2, 4), (3, 4)))
  }

  test("asymmetric pattern needs no conditions") {
    // Tailed triangle with distinctly labeled triangle corners is rigid.
    val p = Pattern.fromEdges((1, 2), (2, 3), (1, 3), (3, 4))
      .addLabel(1, 0).addLabel(2, 1).addLabel(3, 2)
    assert(SymmetryBreaking.breakSymmetry(p)._1.isEmpty)
  }

  test("tailed triangle orders its symmetric corners") {
    // Unlabeled tailed triangle: corners 1 and 2 swap.
    val p = Pattern.fromEdges((1, 2), (2, 3), (1, 3), (3, 4))
    assert(SymmetryBreaking.breakSymmetry(p)._1 == Seq((1, 2)))
  }

  test("labels break symmetry before ordering is needed") {
    val p = Patterns.generateChain(2).addLabel(1, 0).addLabel(2, 1)
    assert(SymmetryBreaking.breakSymmetry(p)._1.isEmpty)
  }

  test("§4.3 pe: anti-vertex yields u1<u3 only (u2 not symmetric)") {
    val pe = Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(3, 4)
    val conds = SymmetryBreaking.breakSymmetry(pe)._1
    assert(conds == Seq((1, 3)))
  }

  test("anti-vertices never receive ordering constraints") {
    val p7 = Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(2, 4).addAntiEdge(3, 4)
    val conds = SymmetryBreaking.breakSymmetry(p7)._1
    assert(conds.forall { case (a, b) => a != 4 && b != 4 })
    assert(conds.toSet == Set((1, 2), (1, 3), (2, 3)))
  }

  test("property: symmetry is fully broken on all motif patterns up to size 5") {
    for (k <- 2 to 5; p <- Patterns.generateAllVertexInduced(k)) breaksAllSymmetries(p)
  }

  test("property: symmetry is fully broken on anti-edge/anti-vertex patterns") {
    val samples = Seq(
      Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(2, 4).addAntiEdge(3, 4),
      Patterns.generateChain(3).addAntiEdge(1, 3),
      Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (1, 3)).addAntiEdge(2, 4),
      Patterns.generateStar(3).addAntiEdge(2, 3)
    )
    samples.foreach(breaksAllSymmetries)
  }

  test("closure is transitive") {
    val closure = SymmetryBreaking.closure(Seq((1, 2), (2, 3), (3, 4)))
    assert(closure.contains((1, 4)) && closure.contains((1, 3)) && closure.contains((2, 4)))
    assert(!closure.contains((4, 1)))
  }

  test("ordering conditions relate vertices in the same orbit") {
    for (k <- 2 to 5; p <- Patterns.generateAllVertexInduced(k)) {
      val autos = BruteForceAutomorphism.all(p)
      for ((a, b) <- SymmetryBreaking.breakSymmetry(p)._1)
        assert(autos.exists(s => s(a) == b), s"condition ($a,$b) not orbit-justified in $p")
    }
  }
}
