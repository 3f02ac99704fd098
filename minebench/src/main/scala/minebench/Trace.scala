package minebench

import scala.collection.mutable
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.util.QueryExecutionListener

/** Half-open wall-clock interval in epoch milliseconds. */
final case class Span(start: Long, end: Long)

object Span {
  /** Total length in seconds of the union of `spans`, each clipped to `window`. */
  def unionS(spans: Iterable[Span], window: Span): Double = {
    val clipped = spans
      .map(s => Span(math.max(s.start, window.start), math.min(s.end, window.end)))
      .filter(s => s.end > s.start)
      .toSeq
      .sortBy(_.start)
    var total = 0L
    var curStart = -1L
    var curEnd = -1L
    for (s <- clipped) {
      if (s.start > curEnd) {
        total += curEnd - curStart
        curStart = s.start; curEnd = s.end
      } else curEnd = math.max(curEnd, s.end)
    }
    total += curEnd - curStart
    total / 1000.0
  }
}

/** Everything Spark reported about one query, keyed by its job group. */
final class QueryEvents {
  val jobs = mutable.ArrayBuffer.empty[Span]
  val openJobs = mutable.Map.empty[Int, Long]
  val stages = mutable.Map.empty[Int, Span]
  val taskDurMs = mutable.Map.empty[Int, mutable.ArrayBuffer[Long]]
  var tasks = 0L
  var taskRunMs = 0L
  var taskCpuNs = 0L
  var shuffleWriteB = 0L
  var shuffleReadB = 0L
  var spillB = 0L
  val compile = mutable.ArrayBuffer.empty[Span]
  var sqlQueries = 0
  var joinRows = 0L
  var resultRows = 0L
}

/** Listens to Spark from outside the program: a `SparkListener` for jobs,
  * stages and tasks, and a `QueryExecutionListener` for the planning
  * tracker's phases and the join operators' `numOutputRows`.
  *
  * Jobs, stages and tasks are attributed by the job group the benchmark
  * sets around each query. SQL executions carry no group; since queries run
  * one after another and the bus is drained after each, every execution
  * reported between two drains belongs to the query that just ran.
  */
final class Tracer extends SparkListener with QueryExecutionListener {
  private val byGroup = mutable.Map.empty[String, QueryEvents]
  private val stageGroup = mutable.Map.empty[Int, String]
  private val pendingSql = new QueryEvents

  private def events(group: String) = byGroup.getOrElseUpdate(group, new QueryEvents)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    for (g <- Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))) {
      events(g).openJobs(e.jobId) = e.time
      e.stageIds.foreach(s => stageGroup.getOrElseUpdate(s, g))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    byGroup.values.find(_.openJobs.contains(e.jobId)).foreach { q =>
      q.jobs += Span(q.openJobs.remove(e.jobId).get, e.time)
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    for (g <- stageGroup.get(info.stageId); s <- info.submissionTime; c <- info.completionTime)
      events(g).stages(info.stageId) = Span(s, c)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- stageGroup.get(e.stageId)) {
      val q = events(g)
      q.tasks += 1
      q.taskDurMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
      val m = e.taskMetrics
      if (m != null) {
        q.taskRunMs += m.executorRunTime
        q.taskCpuNs += m.executorCpuTime
        q.shuffleWriteB += m.shuffleWriteMetrics.bytesWritten
        q.shuffleReadB += m.shuffleReadMetrics.totalBytesRead
        q.spillB += m.memoryBytesSpilled + m.diskBytesSpilled
      }
    }
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = synchronized {
    pendingSql.sqlQueries += 1
    for (p <- qe.tracker.phases.values) pendingSql.compile += Span(p.startTimeMs, p.endTimeMs)
    val seen = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[SparkPlan, java.lang.Boolean])
    def rows(p: SparkPlan): Long = p.metrics.get("numOutputRows").map(_.value).getOrElse(0L)
    // Join output rows: every join's rows are partial matches materialized;
    // the top-most join of each branch produces the complete matches.
    def walk(p: SparkPlan, underJoin: Boolean): Unit = if (seen.add(p)) p match {
      case a: AdaptiveSparkPlanExec => walk(a.executedPlan, underJoin)
      case s: QueryStageExec => walk(s.plan, underJoin)
      case m: InMemoryTableScanExec => walk(m.relation.cachedPlan, underJoin)
      case j: BaseJoinExec =>
        pendingSql.joinRows += rows(j)
        if (!underJoin) pendingSql.resultRows += rows(j)
        j.children.foreach(walk(_, underJoin = true))
      case other => (other.children ++ other.subqueries).foreach(walk(_, underJoin))
    }
    walk(qe.executedPlan, underJoin = false)
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = synchronized {
    pendingSql.sqlQueries += 1
  }

  /** Removes and returns what was reported for `group`, plus every SQL
    * execution reported since the last call. Drain the bus first.
    */
  def take(group: String): QueryEvents = synchronized {
    val q = byGroup.remove(group).getOrElse(new QueryEvents)
    q.compile ++= pendingSql.compile
    q.sqlQueries += pendingSql.sqlQueries
    q.joinRows += pendingSql.joinRows
    q.resultRows += pendingSql.resultRows
    pendingSql.compile.clear(); pendingSql.sqlQueries = 0
    pendingSql.joinRows = 0; pendingSql.resultRows = 0
    stageGroup.filterInPlace((_, g) => g != group)
    q
  }
}
