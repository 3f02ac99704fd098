package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.graph.DataGraph
import repro.pattern.{Pattern, Patterns}

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

  /** Whether at least one match of `p` exists in `g`. */
  def exists(g: DataGraph, p: Pattern): Boolean =
    countAtLeast(MatchEngine.matches(g, p), 1)

  /** Fig 4f: whether a k-clique exists.
    *
    * Implemented as stepwise growth with an emptiness check after every
    * extension — the dataflow analogue of Peregrine terminating its 14-clique
    * search as soon as the exploration frontier dies (§6.5). A single
    * monolithic k-clique join program would also be correct, but for large k
    * (the paper uses k = 14) its ~k²/2-join Catalyst plan is prohibitively
    * expensive to optimize, so each step is materialized (a locally
    * checkpointed RDD) to keep plans small; dying frontiers stop the query
    * immediately. Each step is released once the next one is materialized,
    * and the last one before returning.
    */
  def existsClique(g: DataGraph, k: Int): Boolean = {
    require(k >= 1)
    if (k == 1) return g.numVertices > 0
    if (k <= 4) return exists(g, Patterns.generateClique(k))
    def c(i: Int) = s"m_$i"
    def edgeRel(s: String, d: String) = g.adj.select(col("src") as s, col("dst") as d)
    var cur = g.edges.select(col("src") as c(1), col("dst") as c(2))
    var held: Option[RDD[Row]] = None
    try {
      for (i <- 3 to k) {
        var next = cur
          .join(edgeRel("_as", "_ad"), col(c(i - 1)) === col("_as"))
          .drop("_as")
          .withColumnRenamed("_ad", c(i))
          .filter(col(c(i)) > col(c(i - 1)))
        for (j <- 1 to i - 2)
          next = next
            .join(edgeRel("_xs", "_xd"), col(c(j)) === col("_xs") && col(c(i)) === col("_xd"))
            .drop("_xs", "_xd")
        val step = next.rdd.localCheckpoint()
        val empty = step.count() == 0
        held.foreach(_.unpersist(blocking = false))
        held = Some(step)
        if (empty) return false
        cur = next.sparkSession.createDataFrame(step, next.schema)
      }
      true
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
