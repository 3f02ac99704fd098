package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import repro.graph.DataGraph
import repro.pattern.Pattern
import repro.plan.Planner

/** Early termination for existence queries (§5.3).
  *
  * Peregrine's matching threads periodically observe a stop notification
  * raised by the user function (`stopExploration()`). On the Spark
  * substrate the analogue is a `LIMIT n` take: Catalyst's local limit stops
  * each partition after its first n rows, and the take scans partitions
  * incrementally (one, then a growing number), stopping as soon as n rows
  * have arrived. Nothing is shared between tasks, so this holds on any
  * master.
  */
object Existence {

  /** Whether at least one match of `p` exists in `g`.
    *
    * Runs the plan's steps (`MatchEngine.steps`) one at a time, the dataflow
    * analogue of Peregrine ending its 14-clique search as soon as the
    * exploration frontier dies (§6.5). Each intermediate step is
    * materialized as a locally checkpointed RDD, so every Catalyst plan
    * stays one step long (a monolithic 14-clique program has ~91 joins), and
    * an empty frontier answers `false` at once. Each step is released once
    * the next one is materialized, and the last one before returning. The
    * final step is a `countAtLeast(_, 1)` take, which stops at the first
    * match.
    */
  def exists(g: DataGraph, p: Pattern): Boolean = {
    val steps = MatchEngine.steps(g, Planner.plan(p))
    var cur = g.vertices
    var held: Option[RDD[Row]] = None
    try {
      for (step <- steps.init) {
        val next = step(cur)
        val rdd = next.rdd.localCheckpoint()
        val empty = rdd.count() == 0
        held.foreach(_.unpersist(blocking = false))
        held = Some(rdd)
        if (empty) return false
        cur = next.sparkSession.createDataFrame(rdd, next.schema)
      }
      countAtLeast(steps.last(cur), 1)
    } finally held.foreach(_.unpersist(blocking = false))
  }

  /** Whether `df` yields at least `target` rows, reading at most `target`
    * of them (see the object comment for how the scan stops early).
    */
  def countAtLeast(df: DataFrame, target: Long): Boolean = {
    require(target >= 1 && target <= Int.MaxValue, s"target $target out of range")
    df.select().take(target.toInt).length == target
  }
}
