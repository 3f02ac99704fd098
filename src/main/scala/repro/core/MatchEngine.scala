package repro.core

import repro.graph.DataGraph
import repro.pattern.Pattern
import repro.plan.Planner

/** The pattern-aware matching engine's counting entry point (§4, §5.1).
  *
  * A pattern's exploration plan runs on `PlanExecutor`, which intersects
  * sorted adjacency lists of the broadcast CSR in the plan's
  * connectivity-respecting `joinOrder`. Symmetry breaking is applied as
  * `m(a) < m(b)` bounds on the degree-ranked ids, so non-canonical matches
  * are never generated and no per-match canonicality check exists anywhere
  * in the pipeline.
  *
  * One adaptation from the paper, documented in DESIGN.md: Peregrine unions
  * recursive traversals over all matching orders of p_C; a single join order
  * with the partial-order '''bounds''' yields exactly the same set, because
  * every canonical match satisfies exactly one linear extension of the
  * partial order. The plan therefore holds no matching orders; the executor
  * consumes `plan.joinOrder` + `plan.orderClosure`.
  *
  * With `symmetry = false` the engine models pattern-UNaware systems
  * (PRG-U, §6.6): order bounds are replaced by plain ≠ checks, so every
  * automorphic image is generated and counting must divide by the plan's
  * multiplicity.
  */
object MatchEngine {

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
