package repro.baseline

import org.apache.spark.sql.functions._
import repro.graph.DataGraph

/** Task-oriented, purpose-built mining — the G-Miner [8] model of §6.4.
  *
  * G-Miner materializes a task per vertex carrying that vertex's candidate
  * subgraph (its adjacency), pushes tasks through a distributed queue, and
  * runs hand-written per-task algorithms. The dataflow proxy keeps the
  * defining costs: every task's full neighbor list is shuffled into one row
  * (`collect_list`) before any matching runs, then exploded into candidate
  * tuples — data movement Peregrine's direct joins never pay. Only the two
  * algorithms the paper could evaluate are implemented: 3-clique counting
  * and matching the labeled pattern p2.
  */
object GMinerStyle {

  /** Per-vertex task rows: (v, full neighbor list). */
  private def tasks(g: DataGraph) =
    g.adj.groupBy(col("src") as "v").agg(collect_list(col("dst")) as "nbrs")

  /** Purpose-built 3-clique counting: task v proposes each ordered pair of
    * higher-id neighbors and verifies closure against the edge table.
    */
  def triangleCount(g: DataGraph): Long = {
    val t = tasks(g).cache()
    try {
      val pairs = t
        .select(col("v"), explode(col("nbrs")) as "a", col("nbrs"))
        .filter(col("a") > col("v"))
        .select(col("v"), col("a"), explode(col("nbrs")) as "b")
        .filter(col("b") > col("a"))
        .select(col("a") as "src", col("b") as "dst")
      pairs.join(g.edges, Seq("src", "dst")).count()
    } finally { t.unpersist(); () }
  }

  /** Purpose-built matching of the labeled tailed triangle p2 (labels l1..l4
    * on the triangle corners and the tail): enumerate task triangles, join
    * the tail corner's task row for tail candidates, then label-filter.
    * Labels are applied at the end — G-Miner's label index lives inside its
    * hand-written task logic, which this generic task pipeline models.
    */
  def countP2(g: DataGraph, l1: Int, l2: Int, l3: Int, l4: Int): Long = {
    require(Set(l1, l2, l3).size == 3, "triangle corner labels must be distinct for role assignment")
    val labels = g.labels.getOrElse(throw new IllegalArgumentException("p2 matching needs a labeled graph"))
    val t = tasks(g).cache()
    try {
      val tri = t
        .select(col("v"), explode(col("nbrs")) as "a", col("nbrs"))
        .filter(col("a") > col("v"))
        .select(col("v"), col("a"), explode(col("nbrs")) as "b")
        .filter(col("b") > col("a"))
        .join(g.edges.select(col("src") as "a", col("dst") as "b"), Seq("a", "b"))
      // Tail extension: for each corner, pull that corner's task row.
      val ext = Seq("v", "a", "b").map { corner =>
        tri
          .join(t.select(col("v") as corner, col("nbrs") as "cn"), Seq(corner))
          .select(col("v"), col("a"), col("b"), col(corner) as "c", explode(col("cn")) as "w")
          .filter(col("w") =!= col("v") && col("w") =!= col("a") && col("w") =!= col("b"))
      }.reduce(_ union _)
      // Label assignment: tail corner carries l3, tail w carries l4, and the
      // remaining two corners carry {l1, l2} in their role positions — with
      // distinct corner labels each data subgraph yields exactly one row.
      def lab(cn: String) =
        labels.select(col("v") as cn, col("lab") as s"_$cn")
      val counted = ext
        .join(lab("v"), "v").join(lab("a"), "a").join(lab("b"), "b").join(lab("w"), "w")
        .join(lab("c").withColumnRenamed("_c", "_corner"), Seq("c"))
        .filter(col("_corner") === l3 && col("_w") === l4)
        .filter(
          (col("_v") === l1 && col("_a") === l2 && col("_b") === l3) ||
          (col("_v") === l1 && col("_a") === l3 && col("_b") === l2) ||
          (col("_v") === l2 && col("_a") === l1 && col("_b") === l3) ||
          (col("_v") === l2 && col("_a") === l3 && col("_b") === l1) ||
          (col("_v") === l3 && col("_a") === l1 && col("_b") === l2) ||
          (col("_v") === l3 && col("_a") === l2 && col("_b") === l1)
        )
      counted.count()
    } finally { t.unpersist(); () }
  }
}
