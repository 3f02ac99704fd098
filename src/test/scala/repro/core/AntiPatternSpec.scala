package repro.core

import repro.{Check, LocalRef, SparkSpec, TestGraphs}
import repro.apps.EvalPatterns
import repro.pattern.{Pattern, Patterns}

/** Anti-edge (§4.2) and anti-vertex (§4.3) matching, verified against the
  * oracle and the local brute-force reference.
  */
class AntiPatternSpec extends SparkSpec {

  private lazy val fig6 = TestGraphs.dataGraph(spark, TestGraphs.fig6)
  private lazy val erEdges = TestGraphs.er(40, 120, seed = 21)
  private lazy val er = TestGraphs.dataGraph(spark, erEdges)
  private lazy val skEdges = TestGraphs.skewed(50, 160, seed = 22)
  private lazy val sk = TestGraphs.dataGraph(spark, skEdges)

  // pa of Fig 3: u2 and u4 share the two neighbors u1, u3 but are
  // themselves anti-adjacent ("unrelated people with two mutual friends").
  private val pa = Pattern
    .fromEdges((1, 2), (1, 4), (3, 2), (3, 4))
    .addAntiEdge(2, 4)

  // pe of Fig 3: triangle with anti-vertex anti-adjacent to two corners.
  private val pe = Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(3, 4)

  // pc of Fig 3: edge whose endpoints share no common neighbor.
  private val pc = Patterns.generateChain(2).addAntiEdge(1, 3).addAntiEdge(2, 3)

  // pd of Fig 3: wedge whose center has no other neighbors.
  private val pd = Patterns.generateChain(3).addAntiEdge(2, 4)

  test("anti-edge wedge (vertex-induced wedge) vs oracle") {
    val p = Patterns.generateChain(3).addAntiEdge(1, 3)
    Check.engineVsOracle(spark, fig6, p)
    Check.engineVsOracle(spark, er, p)
    Check.engineVsOracle(spark, sk, p)
  }

  test("pa (Fig 3) vs oracle") {
    Check.engineVsOracle(spark, er, pa)
    Check.engineVsOracle(spark, sk, pa)
  }

  test("p8 (chordal square with anti-edge) vs oracle") {
    Check.engineVsOracle(spark, er, EvalPatterns.p8)
    Check.engineVsOracle(spark, sk, EvalPatterns.p8)
  }

  test("p7 (maximal triangle) vs oracle") {
    Check.engineVsOracle(spark, er, EvalPatterns.p7)
    Check.engineVsOracle(spark, sk, EvalPatterns.p7)
  }

  test("p7 equals triangles minus triangles-in-4-cliques (local check)") {
    val ref = LocalRef.graph(erEdges)
    val triangles = LocalRef.canonicalCount(Patterns.generateClique(3), ref)
    val k4 = LocalRef.canonicalCount(Patterns.generateClique(4), ref)
    val maximal = MatchEngine.countMatches(er, EvalPatterns.p7)
    assert(maximal <= triangles)
    // every K4 contains 4 triangles, but triangles can sit in several K4s —
    // so only the bound holds in general; exact equality vs brute force:
    assert(maximal == LocalRef.canonicalCount(EvalPatterns.p7, ref))
    assert(triangles - maximal <= 4 * k4)
  }

  test("§4.3 example: pe on the Fig 6 graph matches both asymmetric orientations") {
    // Triangle v1,v4,v6: ⟨v4,v6⟩ and ⟨v1,v6⟩ have no common neighbors
    // outside the triangle, but ⟨v1,v4⟩ share v2 — so pe (anti-vertex on
    // corners u1,u3) matches exactly 2 orientations of that triangle, and
    // the other fig6 triangle {v1,v2,v4} contributes its own matches.
    val ref = LocalRef.graph(TestGraphs.fig6)
    val expected = LocalRef.canonicalCount(pe, ref)
    assert(MatchEngine.countMatches(fig6, pe) == expected)
    Check.engineVsOracle(spark, fig6, pe)
  }

  test("pe/pc/pd (Fig 3) vs oracle and local reference") {
    for ((p, name) <- Seq((pe, "pe"), (pc, "pc"), (pd, "pd"))) {
      val fromOracle = Check.engineVsOracle(spark, er, p)
      assert(fromOracle == LocalRef.canonicalCount(p, LocalRef.graph(erEdges)), name)
    }
  }

  test("pf (two anti-vertices) vs oracle") {
    // pf combines pc and pd: wedge with an anti-vertex on the endpoints and
    // another anti-vertex on the center.
    val pf = Patterns.generateChain(3)
      .addAntiEdge(1, 4).addAntiEdge(3, 4)
      .addAntiEdge(2, 5)
    val n = Check.engineVsOracle(spark, er, pf)
    assert(n == LocalRef.canonicalCount(pf, LocalRef.graph(erEdges)))
  }

  test("anti-vertex constraints are strictly stronger") {
    val wedge = Patterns.generateChain(3)
    val constrained = wedge.addAntiEdge(1, 4).addAntiEdge(3, 4)
    assert(MatchEngine.countMatches(er, constrained) <= MatchEngine.countMatches(er, wedge))
  }

  test("p7 PRG-U count equals symmetric count") {
    assert(
      MatchEngine.countMatches(er, EvalPatterns.p7, symmetry = false) ==
      MatchEngine.countMatches(er, EvalPatterns.p7, symmetry = true)
    )
  }
}
