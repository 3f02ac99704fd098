package minebench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import java.util.concurrent.{Callable, ExecutionException, Executors, TimeUnit, TimeoutException}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.minebench.ListenerBus
import org.apache.spark.sql.{classic, SparkSession}
import org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator
import repro.graph.DataGraph
import repro.plan.Planner

/** The mining benchmark: builds a workload's graphs from a seed, runs its
  * query list once cold right after the first build, builds the graphs
  * twice more, then runs the list repeatedly warm, all through the public
  * app entry points; checks every answer against an independent reference,
  * and prints the metrics as one JSON object on the last line of stdout.
  *
  * {{{
  *   Main --workload match-mi --seed 0 --seconds 10 --trace 0 --cache-dir DIR [--size 1.0] [--wrong-reference]
  * }}}
  *
  * `--trace 1` alternates untraced and traced warm passes; the traced ones
  * listen to Spark from outside the program (see `Tracer`) and give the
  * per-layer metrics.
  */
object Main {

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      cacheDir: Path,
      size: Double,
      wrongReference: Boolean
  )

  /** The session settings of the repository's tests and table jobs. */
  def session(): SparkSession =
    SparkSession.builder
      .master("local[*]")
      .appName("minebench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def main(argv: Array[String]): Unit = {
    val wrong = argv.contains("--wrong-reference")
    val a = argv.filterNot(_ == "--wrong-reference").grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val args = Args(
      workload = a("workload"),
      seed = a.getOrElse("seed", "0").toLong,
      seconds = a.getOrElse("seconds", "10").toDouble,
      trace = a.getOrElse("trace", "0") == "1",
      cacheDir = Paths.get(a.getOrElse("cache-dir", "target/refcache")),
      size = a.getOrElse("size", "1.0").toDouble,
      wrongReference = wrong
    )
    val jvmStart = System.nanoTime()
    val (spark, sessionS) = time(session())
    val workloads =
      if (args.workload == "all") Workloads.all(args.size)
      else Workloads.all(args.size).filter(_.name == args.workload)
    require(workloads.nonEmpty, s"unknown workload ${args.workload}")
    try {
      for (w <- workloads) {
        val out = new Bench(spark, w, args, sessionS, jvmStart).run()
        println(Json.obj("env" -> Json.obj(env(spark, args).map { case (k, v) => k -> Json.str(v) }: _*)))
        println(out)
      }
    } finally spark.stop()
  }

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def env(spark: SparkSession, args: Args): Seq[(String, String)] = {
    val conf = spark.conf
    Seq(
      "cores" -> spark.sparkContext.defaultParallelism.toString,
      "master" -> spark.sparkContext.master,
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "broadcast_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1 << 20)).toString,
      "spark" -> spark.version,
      "java" -> System.getProperty("java.version"),
      "commit" -> sys.env.getOrElse("MINEBENCH_COMMIT", "unknown"),
      "seed" -> args.seed.toString,
      "size" -> args.size.toString,
      "workload" -> args.workload
    )
  }
}

/** One run of one workload. */
final class Bench(spark: SparkSession, w: Workload, args: Main.Args, sessionS: Double, jvmStart: Long) {
  import Main.{median, time}

  private val sc = spark.sparkContext
  private val budgetS = 60L
  private val deadlineS = 150.0
  private val pool = Executors.newSingleThreadExecutor { (r: Runnable) =>
    val t = new Thread(r, "minebench-query"); t.setDaemon(true); t
  }
  private var aborted = false

  private def elapsedS: Double = (System.nanoTime() - jvmStart) / 1e9

  // ------------------------------------------------------------ heap
  private val memory = ManagementFactory.getMemoryMXBean
  private var peakHeapB = 0L
  private def gcMillis: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum

  // ------------------------------------------------------------ one query
  final case class Outcome(name: String, wallS: Double, window: Span, codegenS: Double, gcS: Double,
                           events: Option[QueryEvents], planS: Double, planCalls: Int,
                           answer: Either[String, String], problems: Seq[String])

  /** RDD ids of the graphs' own cached relations that are materialized.
    * They are cached lazily, so the first query that scans one adds it.
    */
  private def graphCacheRdds(graphs: Iterable[DataGraph]): Set[Int] = {
    val cm = spark.asInstanceOf[classic.SparkSession].sharedState.cacheManager
    graphs.flatMap(g => Seq(g.edges, g.adj, g.vertices, g.mapping) ++ g.labels).flatMap { df =>
      cm.lookupCachedData(df.asInstanceOf[classic.Dataset[_]]).map(_.cachedRepresentation.cacheBuilder)
        .filter(_.isCachedColumnBuffersLoaded).map(_.cachedColumnBuffers.id)
    }.toSet
  }

  private def leakedRdds(baseline: collection.Set[Int], graphs: Iterable[DataGraph]): Set[Int] = {
    def extra = sc.getPersistentRDDs.keySet.toSet -- baseline -- graphCacheRdds(graphs)
    // Persisted RDDs a query no longer references are released by the
    // ContextCleaner once the JVM collects them.
    val deadline = System.nanoTime() + 3e9.toLong
    var left = extra
    while (left.nonEmpty && System.nanoTime() < deadline) {
      System.gc(); Thread.sleep(100); left = extra
    }
    left
  }

  private def runQuery(q: Query, g: DataGraph, graphs: Iterable[DataGraph], group: String, tracer: Option[Tracer],
                       rddBaseline: mutable.Set[Int]): Outcome = {
    // Planning the query's patterns, timed outside the query (traced passes only).
    val (planS, planCalls) =
      if (tracer.isEmpty) (0.0, 0) else (q.patterns.map(p => time(Planner.plan(p))._2).sum, q.patterns.size)
    val cg0 = CodeGenerator.compileTime
    val gc0 = gcMillis
    val startMs = System.currentTimeMillis()
    val t0 = System.nanoTime()
    val fut = pool.submit(new Callable[String] {
      def call(): String = {
        sc.setJobGroup(group, q.name, interruptOnCancel = true)
        try q.run(spark, g)
        finally sc.clearJobGroup()
      }
    })
    val answer: Either[String, String] =
      try Right(fut.get(budgetS, TimeUnit.SECONDS))
      catch {
        case _: TimeoutException =>
          sc.cancelJobGroup(group); fut.cancel(true); aborted = true
          Left(s"timed out after ${budgetS}s")
        case e: ExecutionException => Left(s"threw ${e.getCause}")
      }
    val wallS = (System.nanoTime() - t0) / 1e9
    val window = Span(startMs, System.currentTimeMillis())
    val codegenS = (CodeGenerator.compileTime - cg0) / 1e9
    val gcS = (gcMillis - gc0) / 1000.0

    ListenerBus.drain(sc)
    val problems = mutable.ArrayBuffer.empty[String]
    val active = sc.statusTracker.getActiveJobIds()
    if (active.nonEmpty) problems += s"jobs still active: ${active.mkString(",")}"
    // What the query left on the heap: used heap after a full collection,
    // which also gives every query the same clean start.
    System.gc()
    peakHeapB = math.max(peakHeapB, memory.getHeapMemoryUsage.getUsed)
    val leaked = leakedRdds(rddBaseline, graphs)
    if (leaked.nonEmpty) problems += s"persisted RDDs left behind: ${leaked.toSeq.sorted.mkString(",")}"
    rddBaseline ++= leaked // blame each leak on the query that left it
    val events = tracer.map(_.take(group))
    for (e <- events) problems ++= traceProblems(e, window, wallS)

    Console.err.println(f"[minebench] ${w.name} $group: $wallS%.3fs")
    Outcome(q.name, wallS, window, codegenS, gcS, events, planS, planCalls, answer, problems.toSeq)
  }

  /** A query's layer times must fit inside its wall time. */
  private def traceProblems(e: QueryEvents, window: Span, wallS: Double): Seq[String] = {
    val tolMs = 50
    val outside = e.jobs.filter(j => j.start < window.start - tolMs || j.end > window.end + tolMs)
    val execS = Span.unionS(e.jobs, window)
    val compileS = Span.unionS(e.compile, window)
    Seq(
      if (outside.nonEmpty) Some(s"${outside.size} job(s) ran outside the query's window") else None,
      if (e.openJobs.nonEmpty) Some(s"${e.openJobs.size} job(s) never ended") else None,
      if (execS + compileS > wallS * 1.02 + 0.05) Some(f"exec $execS%.3fs + compile $compileS%.3fs > wall $wallS%.3fs") else None
    ).flatten
  }

  /** A pass's wall time: its queries' wall times, without the checks after each. */
  private def passS(outs: Seq[Outcome]): Double = outs.map(_.wallS).sum

  private def runPass(pass: String, graphs: Map[String, DataGraph], tracer: Option[Tracer],
                      rddBaseline: mutable.Set[Int]): Seq[Outcome] =
    w.queries.takeWhile(_ => !aborted).map { q =>
      runQuery(q, graphs(q.graph), graphs.values, s"minebench-$pass-${q.name}", tracer, rddBaseline)
    }

  /** Lets the JIT finish compiling what the cold pass and the rebuilds
    * made hot, so warm passes do not share the cores with compiler threads.
    */
  private def awaitQuietJit(): Unit = {
    val jit = ManagementFactory.getCompilationMXBean
    val deadline = System.nanoTime() + 5e9.toLong
    var last = -1L
    while (jit.getTotalCompilationTime != last && System.nanoTime() < deadline) {
      last = jit.getTotalCompilationTime
      Thread.sleep(250)
    }
  }

  // ------------------------------------------------------------ the run
  def run(): String = {
    // Set-up builds every graph the workload uses, three times.
    var graphs = Map.empty[String, DataGraph]
    def build(): Double = {
      graphs.values.foreach(_.unpersist())
      val (gs, s) = time(w.graphs.map(spec => spec.name -> spec.build(spark, args.seed)).toMap)
      graphs = gs
      Console.err.println(f"[minebench] ${w.name} build: $s%.3fs")
      s
    }

    // What a one-shot mining job pays: the session (already started), the
    // first build, and straight after it the cold pass.
    val firstBuildS = build()
    ListenerBus.drain(sc)
    val rddBaseline = mutable.Set.from(sc.getPersistentRDDs.keySet)
    val cold = runPass("cold", graphs, None, rddBaseline)
    val coldS = passS(cold)

    // The rest of the set-up repetitions; the graphs of the last build are
    // the ones the warm passes query.
    val buildS = firstBuildS +: (2 to 3).map(_ => build())
    ListenerBus.drain(sc)
    rddBaseline ++= sc.getPersistentRDDs.keySet
    awaitQuietJit()
    val warm = mutable.ArrayBuffer.empty[(Boolean, Seq[Outcome])]
    val measureStart = System.nanoTime()
    var lastPassS = coldS
    def measuring = (System.nanoTime() - measureStart) / 1e9 < args.seconds
    def timeLeft = elapsedS + 1.2 * lastPassS < deadlineS
    val minPasses = if (args.trace) 2 else 3
    while (!aborted && (warm.size < minPasses || measuring) && timeLeft) {
      val traced = args.trace && warm.size % 2 == 1
      val tracer = if (traced) Some(new Tracer) else None
      tracer.foreach { t => sc.addSparkListener(t); spark.listenerManager.register(t) }
      val (outs, s) = time(runPass(s"warm${warm.size}", graphs, tracer, rddBaseline))
      tracer.foreach { t => sc.removeSparkListener(t); spark.listenerManager.unregister(t) }
      warm += ((traced, outs))
      lastPassS = s
    }
    pool.shutdownNow()

    // References come last, so whether they were cached cannot change what
    // the timed passes find already materialized or compiled.
    val refName = s"${w.name}-seed${args.seed}-${w.digest}.tsv"
    val refs0 = References.cached(args.cacheDir, refName) {
      val ctx = new RefContext(graphs)
      try w.queries.map(q => q.name -> q.reference(ctx)).toMap
      finally ctx.close()
    }
    // A deliberately wrong reference must show up as a failed query.
    val refs = if (args.wrongReference) refs0.updated(w.queries.head.name, "wrong") else refs0
    graphs.values.foreach(_.unpersist())

    val outcomes = cold ++ warm.flatMap(_._2)
    val failed = outcomes.count { o =>
      val problems = o.problems ++ (o.answer match {
        case Left(why) => Seq(why)
        case Right(a) if a != refs(o.name) => Seq(s"answer ${a.take(200)} != reference ${refs(o.name).take(200)}")
        case _ => Nil
      })
      if (problems.nonEmpty) Console.err.println(s"[minebench] ${w.name}/${o.name} failed: ${problems.mkString("; ")}")
      problems.nonEmpty
    }
    val attempted = outcomes.size
    val untraced = warm.filterNot(_._1).map(p => passS(p._2)).toSeq
    val failedFrac = if (attempted == 0) 1.0 else failed.toDouble / attempted
    Console.out.println(f"[minebench] ${w.name}: attempted=$attempted failed=$failed failed_frac=$failedFrac%.4f")
    Console.out.println(f"[minebench] ${w.name}: one-shot = session ${sessionS}%.3fs + first build $firstBuildS%.3fs + cold pass $coldS%.3fs")

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) Seq(
        ("setup_s", sessionS + median(buildS), "s"),
        ("cold_s", sessionS + firstBuildS + coldS, "s"),
        ("warm_s", median(untraced), "s"),
        ("peak_heap_mb", peakHeapB / 1048576.0, "MB")
      )
      else layers(buildS, graphs, cold, warm.filter(_._1).map(_._2).toSeq, untraced)

    Json.obj(
      "correct" -> (failed == 0 && attempted > 0).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map { case (n, v, u) => n -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u)) }: _*)
    )
  }

  /** Per-layer metrics: medians over the traced warm passes. */
  private def layers(buildS: Seq[Double], graphs: Map[String, DataGraph], cold: Seq[Outcome],
                     traced: Seq[Seq[Outcome]], untraced: Seq[Double]): Seq[(String, Double, String)] = {
    val cores = sc.defaultParallelism
    def perPass(outs: Seq[Outcome]): Map[String, Double] = {
      val evs = outs.flatMap(o => o.events.map(o -> _))
      def sum(f: QueryEvents => Double) = evs.map(p => f(p._2)).sum
      val execS = evs.map { case (o, e) => Span.unionS(e.jobs, o.window) }.sum
      val compileS = evs.map { case (o, e) => Span.unionS(e.compile, o.window) }.sum
      val busyS = evs.map { case (o, e) => Span.unionS(e.jobs ++ e.compile, o.window) }.sum
      val taskRunS = sum(_.taskRunMs / 1000.0)
      val joinRows = sum(_.joinRows.toDouble)
      val resultRows = sum(_.resultRows.toDouble)
      // Skew of the pass's longest stage: slowest task over the median task.
      val stages = evs.flatMap { case (_, e) => e.stages.toSeq.map { case (id, s) => (s.end - s.start, e.taskDurMs.getOrElse(id, Nil)) } }
      val skew = stages.filter(_._2.nonEmpty).maxByOption(_._1).map { case (_, ds) =>
        val m = Main.median(ds.map(_.toDouble).toSeq); if (m > 0) ds.max / m else 1.0
      }.getOrElse(1.0)
      Map(
        "plan.s" -> outs.map(_.planS).sum,
        "plan.calls" -> outs.map(_.planCalls).sum.toDouble,
        "core.sql_queries" -> sum(_.sqlQueries.toDouble),
        "core.compile_s" -> compileS,
        "apps.driver_s" -> (outs.map(_.wallS).sum - busyS),
        "core.exec_s" -> execS,
        "core.jobs" -> sum(_.jobs.size.toDouble),
        "core.stages" -> sum(_.stages.size.toDouble),
        "core.tasks" -> sum(_.tasks.toDouble),
        "core.task_run_s" -> taskRunS,
        "core.task_cpu_s" -> sum(_.taskCpuNs / 1e9),
        "core.util" -> (if (execS > 0) taskRunS / (execS * cores) else 0.0),
        "core.task_skew" -> skew,
        "core.join_rows" -> joinRows,
        "core.result_rows" -> resultRows,
        "core.useful_ratio" -> (if (joinRows > 0) resultRows / joinRows else 0.0),
        "core.shuffle_write_mb" -> sum(_.shuffleWriteB / 1048576.0),
        "core.shuffle_read_mb" -> sum(_.shuffleReadB / 1048576.0),
        "core.spill_mb" -> sum(_.spillB / 1048576.0),
        "core.gc_s" -> outs.map(_.gcS).sum
      ) ++ Workloads.queryNames.map(n => s"apps.${n}_s" -> outs.filter(_.name == n).map(_.wallS).sum)
    }
    val passes = traced.map(perPass)
    def med(k: String) = median(passes.map(_(k)))
    val tracedS = median(traced.map(_.map(_.wallS).sum))
    val fixed = Seq(
      ("graph.build_s", median(buildS), "s"),
      ("graph.vertices", graphs.values.map(_.numVertices.toDouble).sum, "count"),
      ("graph.edges", graphs.values.map(_.numEdges.toDouble).sum, "count"),
      ("core.codegen_s", cold.map(_.codegenS).sum, "s"),
      ("bench.trace_overhead", if (untraced.nonEmpty && median(untraced) > 0) tracedS / median(untraced) else 1.0, "ratio")
    )
    val units = Map("count" -> Seq("plan.calls", "core.sql_queries", "core.jobs", "core.stages", "core.tasks",
                                   "core.join_rows", "core.result_rows"),
                    "ratio" -> Seq("core.util", "core.task_skew", "core.useful_ratio"),
                    "MB" -> Seq("core.shuffle_write_mb", "core.shuffle_read_mb", "core.spill_mb"))
    def unitOf(k: String) = units.collectFirst { case (u, ks) if ks.contains(k) => u }.getOrElse("s")
    fixed ++ passes.headOption.toSeq.flatMap(_.keys.toSeq.sorted).map(k => (k, med(k), unitOf(k)))
  }
}

/** Just enough JSON for the result line. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "0" else d.toString
  def obj(kvs: (String, String)*): String = kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
