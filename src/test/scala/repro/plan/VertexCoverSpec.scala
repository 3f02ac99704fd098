package repro.plan

import org.scalatest.funsuite.AnyFunSuite
import repro.pattern.{InducedSubgraph, Pattern, Patterns}

class VertexCoverSpec extends AnyFunSuite {

  private def assertIsConnectedCover(p: Pattern, cover: Set[Int]): Unit = {
    val regularEdges = p.edges.filter { case (u, v) => !p.isAntiVertex(u) && !p.isAntiVertex(v) }
    assert(regularEdges.forall { case (u, v) => cover(u) || cover(v) }, s"$cover does not cover $p")
    assert(InducedSubgraph(p, cover).regularPartConnected, s"$cover not connected in $p")
  }

  test("single edge: one endpoint") {
    assert(VertexCover.minConnectedCover(Patterns.generateChain(2)) == Set(1))
  }

  test("single vertex: itself") {
    assert(VertexCover.minConnectedCover(Pattern.singleton()) == Set(1))
  }

  test("star: the center") {
    for (k <- 2 to 5)
      assert(VertexCover.minConnectedCover(Patterns.generateStar(k)) == Set(1))
  }

  test("wedge: the center") {
    assert(VertexCover.minConnectedCover(Patterns.generateChain(3)) == Set(2))
  }

  test("triangle: two vertices") {
    val cover = VertexCover.minConnectedCover(Patterns.generateClique(3))
    assert(cover.size == 2)
    assertIsConnectedCover(Patterns.generateClique(3), cover)
  }

  test("clique k: k-1 vertices") {
    for (k <- 3 to 5) {
      val p = Patterns.generateClique(k)
      val cover = VertexCover.minConnectedCover(p)
      assert(cover.size == k - 1)
      assertIsConnectedCover(p, cover)
    }
  }

  test("diamond: the chord (Fig 6 core)") {
    val diamond = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1), (2, 4))
    assert(VertexCover.minConnectedCover(diamond) == Set(2, 4))
  }

  test("4-cycle: connectivity forces 3 vertices (opposite pair is smaller but disconnected)") {
    val c4 = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (4, 1))
    val cover = VertexCover.minConnectedCover(c4)
    assert(cover.size == 3)
    assertIsConnectedCover(c4, cover)
  }

  test("anti-edge between regular vertices must be covered (§4.2)") {
    // Wedge 1-2-3 with anti-edge (1,3): cover {2} covers the regular edges
    // but not the anti-edge, so one endpoint must join.
    val p = Patterns.generateChain(3).addAntiEdge(1, 3)
    val cover = VertexCover.minConnectedCover(p)
    assert(cover(1) || cover(3))
    assert(cover(2)) // still needs the regular cover + connectivity
    assert(cover.size == 2)
  }

  test("anti-vertices do not impact the core (§4.3)") {
    val p7 = Patterns.generateClique(3).addAntiEdge(1, 4).addAntiEdge(2, 4).addAntiEdge(3, 4)
    val cover = VertexCover.minConnectedCover(p7)
    assert(!cover(4))
    assert(cover.size == 2) // same as the plain triangle
  }

  test("covers are minimal over all motif patterns up to size 5") {
    for (k <- 2 to 5; p <- Patterns.generateAllVertexInduced(k)) {
      val cover = VertexCover.minConnectedCover(p)
      assertIsConnectedCover(p, cover)
      // brute-force check: no smaller connected cover exists
      val smaller = p.regularVertices.combinations(cover.size - 1).exists { c =>
        val s = c.toSet
        p.edges.forall { case (u, v) => s(u) || s(v) } &&
        InducedSubgraph(p, s).regularPartConnected
      }
      assert(!smaller, s"cover $cover of $p is not minimum")
    }
  }

  test("non-core vertices have all regular neighbors inside the core") {
    for (k <- 2 to 5; p <- Patterns.generateAllVertexInduced(k)) {
      val cover = VertexCover.minConnectedCover(p)
      for (v <- p.regularVertices if !cover(v))
        assert(p.getNeighbors(v).subsetOf(cover))
    }
  }
}
