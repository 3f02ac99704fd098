package repro.pattern

import org.scalatest.funsuite.AnyFunSuite
import repro.core.VertexInduced

class AutomorphismSpec extends AnyFunSuite {

  test("clique k has k! automorphisms") {
    for (k <- 2 to 5)
      assert(Automorphism.all(Patterns.generateClique(k)).size == (1 to k).product)
  }

  test("path automorphisms: the reversal") {
    for (k <- 2 to 5)
      assert(Automorphism.all(Patterns.generateChain(k)).size == 2)
  }

  test("star with k spokes has k! automorphisms (center fixed)") {
    for (k <- 2 to 4)
      assert(Automorphism.all(Patterns.generateStar(k)).size == (1 to k).product)
    // star(1) degenerates to a single edge, where center and spoke swap.
    assert(Automorphism.all(Patterns.generateStar(1)).size == 2)
  }

  test("4-cycle has 8 automorphisms (dihedral group)") {
    val c4 = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1))
    assert(Automorphism.all(c4).size == 8)
  }

  test("diamond has 4 automorphisms") {
    val diamond = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (2, 4))
    assert(Automorphism.all(diamond).size == 4)
  }

  test("labels restrict automorphisms") {
    val labeledEdge = Patterns.generateChain(2).addLabel(1, 0).addLabel(2, 1)
    assert(Automorphism.all(labeledEdge).size == 1)
    val sameLabel = Patterns.generateChain(2).addLabel(1, 0).addLabel(2, 0)
    assert(Automorphism.all(sameLabel).size == 2)
  }

  test("wildcard vertices only map to wildcards") {
    val p = Patterns.generateChain(3).addLabel(1, 5) // 1 labeled, 2-3 wildcard
    // path 1-2-3 with only endpoint 1 labeled: no symmetry remains
    assert(Automorphism.all(p).size == 1)
  }

  test("§4.3: anti-vertex breaks triangle symmetry (pe example)") {
    // pe: triangle u1,u2,u3 with anti-vertex u4 anti-adjacent to u1 and u3.
    val pe = Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(3, 4)
    val autos = Automorphism.all(pe)
    // u2 is fixed (not connected to the anti-vertex); u1↔u3 swap remains.
    assert(autos.size == 2)
    assert(autos.forall(s => s(2) == 2 && s(4) == 4))
    assert(autos.exists(s => s(1) == 3 && s(3) == 1))
  }

  test("anti-vertices cannot map to regular vertices") {
    val p7 = Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(2, 4).addAntiEdge(3, 4)
    val autos = Automorphism.all(p7)
    assert(autos.size == 6) // triangle symmetric, anti-vertex fixed
    assert(autos.forall(_(4) == 4))
  }

  test("regularMultiplicity equals |Aut| when all vertices are regular") {
    assert(Automorphism.regularMultiplicity(Patterns.generateClique(4)) == 24)
    assert(Automorphism.regularMultiplicity(Patterns.generateChain(4)) == 2)
  }

  test("regularMultiplicity quotients automorphisms moving only anti-vertices") {
    // Edge 1-2 with two symmetric anti-vertices 3, 4 anti-adjacent to both.
    val p = Patterns
      .generateChain(2)
      .addAntiEdge(1, 3).addAntiEdge(2, 3)
      .addAntiEdge(1, 4).addAntiEdge(2, 4)
    // Aut: swap(1,2) × swap(3,4) = 4; action on regular vertices: 2.
    assert(Automorphism.all(p).size == 4)
    assert(Automorphism.regularMultiplicity(p) == 2)
  }

  test("orbits of the star group the spokes") {
    val star = Patterns.generateStar(3) // center 1, spokes 2..4
    assert(Automorphism.orbitIds(Automorphism.regularActions(star)) == Seq(0, 1, 1, 1))
  }

  test("orbits of the diamond pair opposite vertices") {
    val diamond = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (2, 4))
    assert(Automorphism.orbitIds(Automorphism.regularActions(diamond)) == Seq(0, 1, 0, 1))
  }

  test("regularActions are the group's actions on the regular positions, and stabilizers keep labels") {
    val chain = Patterns.generateChain(4) // 1-2-3-4: the identity and the reversal
    val actions = Automorphism.regularActions(chain)
    assert(actions.toSet == Set(Vector(0, 1, 2, 3), Vector(3, 2, 1, 0)))
    assert(Automorphism.orbitIds(actions) == Seq(0, 1, 1, 0))
    // Labels A B B A keep the reversal; A B B C keep only the identity.
    for ((ls, size) <- Seq((Seq(0, 1, 1, 0), 2), (Seq(0, 1, 1, 2), 1))) {
      val stabilizer = actions.filter(_.map(ls) == ls)
      val labeled = chain.copy(labels = chain.vertices.zip(ls).toMap)
      assert(stabilizer.size == size && stabilizer.toSet == Automorphism.regularActions(labeled).toSet)
    }
    assert(Automorphism.orbitIds(Seq(Vector(0, 1, 2, 3))) == Seq(0, 1, 2, 3))
  }

  test("preserves rejects non-automorphisms") {
    val wedge = Patterns.generateChain(3) // 1-2-3, center 2
    assert(!BruteForceAutomorphism.preserves(wedge, Map(1 -> 2, 2 -> 1, 3 -> 3)))
    assert(BruteForceAutomorphism.preserves(wedge, Map(1 -> 3, 2 -> 2, 3 -> 1)))
  }

  test("search agrees with brute force on motifs, their edge-induced forms and samples") {
    val samples = Seq(
      Patterns.generateChain(2).addLabel(1, 0).addLabel(2, 1),
      Patterns.generateChain(2).addLabel(1, 0).addLabel(2, 0),
      Patterns.generateChain(3).addLabel(1, 5),
      Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (2, 4)).addLabel(1, 0).addLabel(3, 0),
      Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(3, 4),
      Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(2, 4).addAntiEdge(3, 4),
      Patterns.generateChain(2).addAntiEdge(1, 3).addAntiEdge(2, 3).addAntiEdge(1, 4).addAntiEdge(2, 4)
    )
    val upTo5 = (2 to 5).flatMap(Patterns.generateAllVertexInduced)
    // Every connected graph has a vertex whose removal leaves it connected, so
    // extending the 5-vertex motifs by a vertex yields all 112 6-vertex ones
    // (far faster than generateAllVertexInduced(6), which canonicalizes ~26K graphs).
    val six = Patterns.extendByVertex(Patterns.generateAllVertexInduced(5))
    assert(six.size == 112)
    val patterns = upTo5 ++ six ++ upTo5.map(VertexInduced.toEdgeInduced) ++ samples
    for (p <- patterns)
      assert(Automorphism.all(p).toSet == BruteForceAutomorphism.all(p).toSet, s"pattern $p")
  }

  test("extending respects the partial map and rejects inconsistent ones") {
    val diamond = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (2, 4))
    assert(Automorphism.extending(diamond, Map(1 -> 3)).toSet ==
      BruteForceAutomorphism.all(diamond).filter(_(1) == 3).toSet)
    assert(!Automorphism.extending(diamond, Map(1 -> 2)).hasNext) // degree 2 vs 3
    assert(!Automorphism.extending(diamond, Map(1 -> 3, 2 -> 2, 3 -> 3)).hasNext) // not injective
    assert(!Automorphism.extending(Patterns.generateChain(4), Map(1 -> 4, 2 -> 2)).hasNext) // 4 ≁ 2
  }
}
