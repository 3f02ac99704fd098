package repro.pattern

import org.scalatest.funsuite.AnyFunSuite

class PatternSpec extends AnyFunSuite {

  private val triangle = Pattern.fromEdges((1, 2), (2, 3), (1, 3))

  test("fromEdges normalizes endpoints and collects vertices") {
    val p = Pattern.fromEdges((3, 1), (2, 1))
    assert(p.vertices == Vector(1, 2, 3))
    assert(p.edges == Set((1, 3), (1, 2)))
  }

  test("getNeighbors returns regular adjacency") {
    assert(triangle.getNeighbors(1) == Set(2, 3))
    assert(triangle.getNeighbors(2) == Set(1, 3))
  }

  test("areConnected is symmetric") {
    assert(triangle.areConnected(1, 2) && triangle.areConnected(2, 1))
    assert(!triangle.areConnected(1, 4))
  }

  test("addEdge materializes new endpoints") {
    val p = triangle.addEdge(3, 4)
    assert(p.vertices == Vector(1, 2, 3, 4))
    assert(p.areConnected(3, 4))
  }

  test("addEdge rejects self loops") {
    assertThrows[IllegalArgumentException](triangle.addEdge(2, 2))
  }

  test("addAntiEdge records anti-adjacency, not adjacency") {
    val p = triangle.addAntiEdge(1, 4)
    assert(p.areAntiAdjacent(1, 4) && p.areAntiAdjacent(4, 1))
    assert(!p.areConnected(1, 4))
    assert(p.antiNeighbors(4) == Set(1))
  }

  test("an edge cannot be both regular and anti") {
    assertThrows[IllegalArgumentException](triangle.addAntiEdge(1, 2))
  }

  test("removeEdge removes either kind") {
    assert(!triangle.removeEdge(1, 2).areConnected(1, 2))
    val pa = triangle.addAntiEdge(1, 4)
    assert(!pa.removeEdge(4, 1).areAntiAdjacent(1, 4))
  }

  test("labels: getLabel and addLabel") {
    val p = triangle.addLabel(1, 7)
    assert(p.getLabel(1).contains(7))
    assert(p.getLabel(2).isEmpty)
    assertThrows[IllegalArgumentException](triangle.addLabel(9, 1))
  }

  test("anti-vertex = vertex with only anti-edges") {
    val p = triangle.addAntiEdge(1, 4).addAntiEdge(2, 4)
    assert(p.isAntiVertex(4))
    assert(!p.isAntiVertex(1)) // has regular edges
    assert(p.antiVertices == Vector(4))
    assert(p.regularVertices == Vector(1, 2, 3))
  }

  test("a vertex with one regular edge and anti-edges is regular") {
    val p = Pattern.fromEdges((1, 2), (2, 3)).addAntiEdge(1, 3)
    assert(!p.isAntiVertex(1) && !p.isAntiVertex(3))
    assert(p.regularVertices == Vector(1, 2, 3))
  }

  test("degree counts regular edges only") {
    val p = triangle.addAntiEdge(1, 4)
    assert(p.degree(1) == 2)
    assert(p.degree(4) == 0)
  }

  test("isConnected spans regular and anti edges") {
    val p = Pattern.fromEdges((1, 2)).addAntiEdge(2, 3)
    assert(p.isConnected)
    val disconnected = Pattern(Vector(1, 2, 3, 4), Set((1, 2), (3, 4)), Set.empty, Map.empty)
    assert(!disconnected.isConnected)
  }

  test("regularPartConnected ignores anti-vertices") {
    val p = triangle.addAntiEdge(1, 4).addAntiEdge(2, 4)
    assert(p.regularPartConnected)
  }

  test("inducedSubgraph keeps edges and labels among the subset") {
    val p = Pattern.fromEdges((1, 2), (2, 3), (3, 4), (2, 4)).addLabel(2, 5)
    val s = InducedSubgraph(p, Set(2, 3, 4))
    assert(s.vertices == Vector(2, 3, 4))
    assert(s.edges == Set((2, 3), (3, 4), (2, 4)))
    assert(s.getLabel(2).contains(5))
  }

  test("remap relabels consistently") {
    val p = triangle.remap(Map(1 -> 10, 2 -> 20, 3 -> 30))
    assert(p.vertices == Vector(10, 20, 30))
    assert(p.areConnected(10, 20))
  }

  test("remap must be injective") {
    assertThrows[IllegalArgumentException](triangle.remap(Map(1 -> 9, 2 -> 9, 3 -> 8)))
  }

  test("fullyLabeled checks regular vertices only") {
    val p = Pattern.fromEdges((1, 2)).addAntiEdge(1, 3)
    assert(!p.fullyLabeled)
    assert(p.addLabel(1, 0).addLabel(2, 1).fullyLabeled) // anti-vertex 3 needs no label
  }

  test("toString is deterministic and distinguishes structure") {
    assert(triangle.toString == Pattern.fromEdges((1, 3), (2, 3), (2, 1)).toString)
    assert(triangle.toString != Pattern.fromEdges((1, 2), (2, 3)).toString)
  }

  test("singleton pattern") {
    val p = Pattern.singleton()
    assert(p.vertices == Vector(1) && p.edges.isEmpty)
    assert(p.regularVertices == Vector(1))
  }
}
