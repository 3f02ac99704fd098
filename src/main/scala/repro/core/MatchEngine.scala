package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.DataGraph
import repro.pattern.Pattern
import repro.plan.{ExplorationPlan, Planner}

/** The pattern-aware matching engine (§4, §5.1) on the Spark dataflow
  * substrate.
  *
  * `matches` compiles the exploration plan of a pattern into a Catalyst
  * join program over the degree-ordered symmetric edge relation:
  *
  *  - the core p_C is matched first, by one join per traversed edge, in the
  *    plan's connectivity-respecting `joinOrder`;
  *  - non-core vertices are completed by adjacency "intersections": one
  *    anchor join plus one edge-existence join per additional core neighbor;
  *  - symmetry breaking is applied as `m(a) < m(b)` predicates on the
  *    degree-ranked ids, so non-canonical matches are never generated and no
  *    per-match canonicality check exists anywhere in the pipeline;
  *  - anti-edges (§4.2) become LEFT ANTI joins against the edge relation
  *    (the relational form of the paper's adjacency-list set difference);
  *  - anti-vertices (§4.3) are verified after all regular vertices are
  *    bound, as a LEFT ANTI join against a common-neighbor witness relation
  *    (the relational form of the paper's intersection-emptiness check).
  *
  * One adaptation from the paper, documented in DESIGN.md: Peregrine unions
  * recursive traversals over all matching orders of p_C; under relational
  * evaluation a single join order with the partial-order '''predicates'''
  * yields exactly the same set, because every canonical match satisfies
  * exactly one linear extension of the partial order. The plan therefore
  * holds no matching orders; the engine consumes `plan.joinOrder` +
  * `plan.orderClosure`.
  *
  * Counting and existence do not materialize matches: `countMatches` and
  * `Existence` run the same plan on `PlanExecutor`, which intersects sorted
  * adjacency lists of the broadcast CSR. The join compiler serves `matches`
  * (listing, FSM/MNI aggregation) and is the tests' second, independent
  * implementation of every plan.
  *
  * With `symmetry = false` the engine models pattern-UNaware systems
  * (PRG-U, §6.6): order predicates are replaced by plain ≠ constraints, so
  * every automorphic image is generated and counting must divide by the
  * plan's multiplicity.
  */
object MatchEngine {

  /** Column holding the data vertex matched to pattern vertex `v`. */
  def mcol(v: Int): String = s"m_$v"

  /** Column holding the discovered label of pattern vertex `v`. */
  def lcol(v: Int): String = s"l_$v"

  /** All matches of `p` in `g` as a DataFrame with one column `m_<v>` per
    * regular pattern vertex (plus `l_<v>` for unlabeled vertices when
    * `discoverLabels` is set and the graph is labeled).
    */
  def matches(
      g: DataGraph,
      p: Pattern,
      symmetry: Boolean = true,
      discoverLabels: Boolean = false
  ): DataFrame =
    matchesWithPlan(g, Planner.plan(p), symmetry, discoverLabels)

  def matchesWithPlan(
      g: DataGraph,
      plan: ExplorationPlan,
      symmetry: Boolean = true,
      discoverLabels: Boolean = false
  ): DataFrame = {
    val p = plan.pattern
    val order = plan.joinOrder
    require(
      p.regularVertices.forall(v => p.getLabel(v).isEmpty) || g.labels.isDefined,
      "labeled pattern requires a labeled graph"
    )

    def edgeRel(s: String, d: String): DataFrame =
      g.adj.select(col("src") as s, col("dst") as d)

    def vertexStep(v: Int, prior: Seq[Int])(in: DataFrame): DataFrame = {
      var df = in
      if (prior.isEmpty) {
        df = df.select(col("v") as mcol(v))
      } else {
        val neighbors = prior.filter(w => p.areConnected(v, w))
        val anchor = neighbors.headOption.getOrElse(
          throw new IllegalStateException(s"join order not connectivity-respecting at $v")
        )
        df = df
          .join(edgeRel("_as", "_ad"), col(mcol(anchor)) === col("_as"))
          .drop("_as")
          .withColumnRenamed("_ad", mcol(v))
        // Remaining pattern edges to already-bound vertices: existence joins
        // (the relational form of adjacency-list intersection).
        for (w <- neighbors.tail)
          df = df
            .join(edgeRel("_xs", "_xd"), col(mcol(w)) === col("_xs") && col(mcol(v)) === col("_xd"))
            .drop("_xs", "_xd")
      }

      // Symmetry breaking (§4.1) — or plain distinctness when disabled.
      for (w <- prior) {
        val lt = plan.orderClosure.contains((v, w)) // m(v) < m(w)
        val gt = plan.orderClosure.contains((w, v))
        if (symmetry && lt) df = df.filter(col(mcol(v)) < col(mcol(w)))
        else if (symmetry && gt) df = df.filter(col(mcol(v)) > col(mcol(w)))
        else if (!p.areConnected(v, w)) df = df.filter(col(mcol(v)) =!= col(mcol(w)))
      }

      // Anti-edges to bound vertices (§4.2): set difference ≡ anti join.
      for (w <- prior if p.areAntiAdjacent(v, w))
        df = df.join(
          edgeRel("_ns", "_nd"),
          col(mcol(v)) === col("_ns") && col(mcol(w)) === col("_nd"),
          "left_anti"
        )

      // Labels: constraint for labeled pattern vertices, discovery otherwise.
      p.getLabel(v) match {
        case Some(lbl) =>
          val lab = g.labels.get.filter(col("lab") === lbl).select(col("v") as "_lv")
          df.join(lab, col(mcol(v)) === col("_lv")).drop("_lv")
        case None if discoverLabels && g.labels.isDefined =>
          val lab = g.labels.get.select(col("v") as "_lv", col("lab") as lcol(v))
          df.join(lab, col(mcol(v)) === col("_lv")).drop("_lv")
        case _ => df
      }
    }

    // Anti-vertex constraints (§4.3), once every regular vertex is bound.
    val matchCols = order.map(mcol)
    def antiVertexStep(av: Int)(df: DataFrame): DataFrame = {
      val ns = p.antiNeighbors(av).toSeq.sorted
      // Per the anti-vertex formula, a common neighbor w is only excused if
      // it is the image of a pattern-neighbor of one of ū's neighbors.
      val excluded = ns.flatMap(x => p.getNeighbors(x)).distinct.sorted
      var wdf = df
        .select(matchCols.map(col): _*)
        .join(edgeRel("_ws", "_w"), col(mcol(ns.head)) === col("_ws"))
        .drop("_ws")
      for (x <- ns.tail)
        wdf = wdf
          .join(edgeRel("_es", "_ed"), col(mcol(x)) === col("_es") && col("_w") === col("_ed"))
          .drop("_es", "_ed")
      for (y <- excluded) wdf = wdf.filter(col("_w") =!= col(mcol(y)))
      df.join(wdf.select(matchCols.map(col): _*), matchCols, "left_anti")
    }

    val regular = order.indices.foldLeft(g.vertices)((df, i) => vertexStep(order(i), order.take(i))(df))
    p.antiVertices.foldLeft(regular)((df, av) => antiVertexStep(av)(df))
  }

  /** Count canonical matches, on `PlanExecutor`. With symmetry breaking the
    * match set is already canonical; without it (PRG-U) every automorphic
    * image is generated, so the count is divided by the multiplicity —
    * exactly AutoMine's counting correction, which is why PRG-U cannot
    * '''list''' unique matches (§2.2.2).
    */
  def countMatches(g: DataGraph, p: Pattern, symmetry: Boolean = true): Long = {
    val plan = Planner.plan(p)
    val n = PlanExecutor.run(g, plan, symmetry).count
    if (symmetry) n
    else {
      require(n % plan.multiplicity == 0, s"raw count $n not divisible by multiplicity ${plan.multiplicity}")
      n / plan.multiplicity
    }
  }
}
