package repro.core

import repro.graph.DataGraph
import repro.pattern.Pattern
import repro.plan.Planner

/** Early termination for existence queries (§5.3).
  *
  * Peregrine's matching threads periodically observe a stop notification
  * raised by the user function (`stopExploration()`). Here each
  * `PlanExecutor` task stops as soon as it has found the matches asked for,
  * so a query whose answer is near the roots ends after a few candidates per
  * task, and one whose frontier dies (a 14-clique on a graph without one,
  * §6.5) ends when the partial-order ranges run empty. Nothing is shared
  * between tasks, so this holds on any master.
  */
object Existence {

  /** Whether at least one match of `p` exists in `g`. */
  def exists(g: DataGraph, p: Pattern): Boolean = countAtLeast(g, p, 1)

  /** Whether `g` holds at least `target` canonical matches of `p`; each task
    * stops once it has found `target`.
    */
  def countAtLeast(g: DataGraph, p: Pattern, target: Long): Boolean = {
    require(target >= 1, s"target $target out of range")
    PlanExecutor.run(g, Planner.plan(p), limit = target).count >= target
  }
}
