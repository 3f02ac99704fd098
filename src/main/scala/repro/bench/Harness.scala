package repro.bench

import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit, TimeoutException}
import org.apache.spark.JobExecutionStatus
import org.apache.spark.sql.SparkSession

/** Benchmark harness: wall-clock timing, per-cell time budgets (the
  * reproduction's analogue of the paper's 5-hour timeout '×' marks), and
  * paper-style table printing.
  */
object Harness {

  /** One measured table cell. */
  final case class Cell(value: String, seconds: Option[Double]) {
    def timeStr: String = seconds.map(s => f"$s%.2f").getOrElse(value)
  }

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Run `f` under a wall-clock budget; on timeout cancel the job group and
    * report '×' (like the paper's did-not-finish marker). Any error reports
    * '—' (like the paper's out-of-memory marker).
    *
    * A cancelled cell is waited for, up to `unwindSeconds`: its thread must
    * finish (so whatever its `finally` blocks release is released) and its
    * jobs must be seen to end, so the next cell does not time the old
    * cell's cleanup.
    */
  def budgeted(spark: SparkSession, label: String, budgetSeconds: Int)(f: => String): Cell = {
    val sc = spark.sparkContext
    val group = s"bench-$label-${System.nanoTime()}"
    val pool = Executors.newSingleThreadExecutor()
    val fut = pool.submit(new Callable[(String, Double)] {
      def call(): (String, Double) = {
        sc.setJobGroup(group, label, interruptOnCancel = true)
        try time(f)
        finally sc.clearJobGroup()
      }
    })
    try {
      val (v, secs) = fut.get(budgetSeconds.toLong, TimeUnit.SECONDS)
      Cell(v, Some(secs))
    } catch {
      case _: TimeoutException =>
        val deadline = System.nanoTime() + unwindSeconds * 1000000000L
        sc.cancelJobGroupAndFutureJobs(group)
        fut.cancel(true)
        pool.shutdown()
        pool.awaitTermination(unwindSeconds, TimeUnit.SECONDS)
        def running = sc.statusTracker.getJobIdsForGroup(group).exists { id =>
          sc.statusTracker.getJobInfo(id).exists(_.status == JobExecutionStatus.RUNNING)
        }
        while (running && System.nanoTime() < deadline) Thread.sleep(10)
        Cell("x", None)
      case e: ExecutionException =>
        Console.err.println(s"[bench] $label failed: ${e.getCause}")
        Cell("-", None)
    } finally {
      pool.shutdown()
      ()
    }
  }

  /** How long a cancelled cell may take to unwind before the next one runs. */
  private val unwindSeconds = 30

  /** Fixed-width table printer (markdown-ish, readable in test logs). */
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => if (i < r.size) r(i).length else 0).max)
    def line(r: Seq[String]) =
      "| " + r.zipWithIndex.map { case (c, i) => c.padTo(widths(i), ' ') }.mkString(" | ") + " |"
    val sep = "|" + widths.map(w => "-" * (w + 2)).mkString("|") + "|"
    (s"\n=== $title ===" +: line(header) +: sep +: rows.map(line)).mkString("\n") + "\n"
  }
}
