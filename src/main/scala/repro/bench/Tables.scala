package repro.bench

import org.apache.spark.sql.SparkSession
import repro.apps.{CliqueCount, ClusteringCoeff, EvalPatterns, Fsm, MotifCount}
import repro.baseline.{BfsEnumerator, DfsEnumerator, GMinerStyle}
import repro.core.{Existence, MatchEngine, PlanExecutor, VertexInduced}
import repro.graph.{DataGraph, GraphStats}
import repro.pattern.{Pattern, Patterns}
import repro.plan.Planner

/** Runners reproducing each evaluation table. Every cell reports the value
  * produced (a count / pattern total) and the wall-clock seconds; baseline
  * cells run under a time budget and report 'x' on timeout, '-' on failure,
  * mirroring the paper's ×/— markers. Cells the paper itself could not run
  * (OOM / out of disk) are skipped and marked 'np' (not performed).
  *
  * Every runner returns (formatted table, rows) where a row is
  * (app, graph, Seq(system -> cell)); bench suites assert cross-system
  * value agreement on the rows, then print the table.
  */
object Tables {

  import Harness.Cell

  type Row = (String, String, Seq[(String, Cell)])

  private val skip = Cell("np", None)

  // PRG cells repeat across Tables 3/4 and Fig 10 (as in the paper, which
  // prints the same PRG column in several tables) — measure each once.
  private val prgMemo = collection.concurrent.TrieMap.empty[String, Cell]

  // PRG gets 3× the per-cell budget: unlike baseline timeouts (which mirror
  // the paper's ×), a PRG timeout only reflects the harness schedule.
  private def prgCell(spark: SparkSession, budget: Int, label: String)(f: => String): Cell =
    prgMemo.getOrElseUpdate(label, Harness.budgeted(spark, label, budget * 3)(f))

  private def fmtRows(header: Seq[String], rows: Seq[Row]): Seq[Seq[String]] =
    rows.map { case (app, g, cells) =>
      Seq(app, g) ++ cells.flatMap { case (_, c) => Seq(c.timeStr, c.value) }
    }

  private def header(systems: Seq[String]): Seq[String] =
    Seq("App", "G") ++ systems.flatMap(s => Seq(s"$s time(s)", s"$s value"))

  def renderTable(title: String, systems: Seq[String], rows: Seq[Row]): String =
    Harness.render(title, header(systems), fmtRows(header(systems), rows))

  // -------------------------------------------------------------- builds

  /** The build, CSR-broadcast and label-broadcast seconds of the lite graphs
    * `names`, building those not built yet.
    */
  def builds(d: LiteData, names: Seq[String]): (String, Seq[Row]) = {
    val rows = names.map(d.build).map { b =>
      ("build", b.name, Seq(
        "build" -> Cell(s"|V|=${b.graph.numVertices} |E|=${b.graph.numEdges}", Some(b.buildS)),
        "CSR" -> Cell("", Some(b.csrS)),
        "labels" -> Cell("-", b.labelsS)
      ))
    }
    (renderTable("Graph builds", Seq("build", "CSR", "labels"), rows), rows)
  }

  /** `table` after building the lite graphs `names`, so that no cell is
    * charged a build; the builds are printed above it as rows of their own.
    */
  private def afterBuilds(d: LiteData, names: String*)(table: => (String, Seq[Row])): (String, Seq[Row]) = {
    val built = builds(d, names)._1
    val (rendered, rows) = table
    (built + rendered, rows)
  }

  // -------------------------------------------------------------- Table 2

  def table2(spark: SparkSession, d: LiteData): (String, Seq[Row]) = afterBuilds(d, "MI", "PA", "PA-L", "OK", "FR") {
    val datasets = Seq(
      ("MI (labeled)", d.mi),
      ("PA unlabeled", d.pa),
      ("PA labeled", d.paL),
      ("OK", d.ok),
      ("FR", d.fr)
    )
    val rows = datasets.map { case (name, g) =>
      val (s, secs) = Harness.time(GraphStats.describe(g))
      val v = s"|V|=${s.numVertices} |E|=${s.numEdges} |L|=${s.numLabels.map(_.toString).getOrElse("-")} " +
        f"maxDeg=${s.maxDegree} avgDeg=${s.avgDegree}%.1f"
      ("stats", name, Seq("PRG" -> Cell(v, Some(secs))))
    }
    (renderTable("Table 2: datasets (lite substitutions)", Seq("PRG"), rows), rows)
  }

  // -------------------------------------------------------------- helpers

  private def prgMotifs(g: DataGraph, size: Int): String =
    MotifCount.total(g, size).toString

  private def prgClique(g: DataGraph, k: Int): String =
    CliqueCount.count(g, k).toString

  private def prgFsm(spark: SparkSession, g: DataGraph, tau: Long): String = {
    val r = Fsm.run(spark, g, maxEdges = 3, threshold = tau)
    s"${r.totalPatterns}f"
  }

  // -------------------------------------------------------------- Table 3

  /** PRG vs breadth-first systems (Arabesque / RStream proxies). */
  def table3(spark: SparkSession, d: LiteData, budget: Int = Harness.defaultBudget,
             fsmTauMi: Seq[Long] = Seq(60, 80, 100), fsmTauPa: Seq[Long] = Seq(400, 500, 600)
  ): (String, Seq[Row]) = afterBuilds(d, "MI", "PA", "PA-L", "OK", "FR") {
    val systems = Seq("PRG", "ABQ", "RS")
    def cell(label: String)(f: => String): Cell = Harness.budgeted(spark, label, budget)(f)

    def motifRow(g: DataGraph, name: String, size: Int, runBfs: Boolean, runRs: Boolean): Row =
      (s"$size-Motifs", name, Seq(
        "PRG" -> prgCell(spark, budget, s"prg-m$size-$name")(prgMotifs(g, size)),
        "ABQ" -> (if (runBfs) cell(s"abq-m$size-$name") {
          BfsEnumerator.motifCounts(spark, g, size, rstream = false)._1.values.sum.toString
        } else skip),
        "RS" -> (if (runRs) cell(s"rs-m$size-$name") {
          BfsEnumerator.motifCounts(spark, g, size, rstream = true)._1.values.sum.toString
        } else skip)
      ))

    def cliqueRow(g: DataGraph, name: String, k: Int, runBfs: Boolean): Row =
      (s"$k-Cliques", name, Seq(
        "PRG" -> prgCell(spark, budget, s"prg-c$k-$name")(prgClique(g, k)),
        "ABQ" -> (if (runBfs) cell(s"abq-c$k-$name") {
          BfsEnumerator.cliqueCount(spark, g, k, rstream = false)._1.toString
        } else skip),
        "RS" -> (if (runBfs) cell(s"rs-c$k-$name") {
          BfsEnumerator.cliqueCount(spark, g, k, rstream = true)._1.toString
        } else skip)
      ))

    // FSM runs many match() rounds; give its cells a larger budget.
    def fsmCell(label: String)(f: => String): Cell = Harness.budgeted(spark, label, budget * 3)(f)
    def fsmRow(g: DataGraph, name: String, tau: Long, runBfs: Boolean): Row =
      (s"FSM tau=$tau", name, Seq(
        "PRG" -> prgCell(spark, budget, s"prg-fsm$tau-$name")(prgFsm(spark, g, tau)),
        "ABQ" -> (if (runBfs) fsmCell(s"abq-fsm$tau-$name") {
          val (sup, _) = BfsEnumerator.fsmSupports(spark, g, 3, Some(tau))
          s"${sup.count(_._2 >= tau)}f3"
        } else skip),
        "RS" -> skip // paper: RStream OOMs on MI FSM; PA FSM modeled by the same BFS proxy
      ))

    val rows =
      Seq(
        motifRow(d.mi, "MI", 3, runBfs = true, runRs = true),
        motifRow(d.pa, "PA", 3, runBfs = true, runRs = true),
        motifRow(d.ok, "OK", 3, runBfs = false, runRs = false),
        motifRow(d.fr, "FR", 3, runBfs = false, runRs = false),
        motifRow(d.mi, "MI", 4, runBfs = true, runRs = false),
        motifRow(d.pa, "PA", 4, runBfs = true, runRs = false),
        motifRow(d.ok, "OK", 4, runBfs = false, runRs = false)
      ) ++
        fsmTauMi.map(tau => fsmRow(d.mi, "MI", tau, runBfs = true)) ++
        fsmTauPa.map(tau => fsmRow(d.paL, "PA", tau, runBfs = false)) ++
        Seq(
          cliqueRow(d.mi, "MI", 3, runBfs = true),
          cliqueRow(d.pa, "PA", 3, runBfs = true),
          cliqueRow(d.ok, "OK", 3, runBfs = false),
          cliqueRow(d.fr, "FR", 3, runBfs = false),
          cliqueRow(d.mi, "MI", 4, runBfs = true),
          cliqueRow(d.pa, "PA", 4, runBfs = true),
          cliqueRow(d.ok, "OK", 4, runBfs = false),
          cliqueRow(d.fr, "FR", 4, runBfs = false),
          cliqueRow(d.mi, "MI", 5, runBfs = true),
          cliqueRow(d.pa, "PA", 5, runBfs = true),
          cliqueRow(d.ok, "OK", 5, runBfs = false),
          cliqueRow(d.fr, "FR", 5, runBfs = false)
        )
    (renderTable("Table 3: PRG vs breadth-first (ABQ=Arabesque, RS=RStream proxies)", systems, rows), rows)
  }

  // -------------------------------------------------------------- Table 4

  /** PRG vs depth-first (Fractal proxy). */
  def table4(spark: SparkSession, d: LiteData, budget: Int = Harness.defaultBudget,
             fsmTauMi: Seq[Long] = Seq(60, 80, 100)): (String, Seq[Row]) = afterBuilds(d, "MI", "PA", "PA-L") {
    val systems = Seq("PRG", "FCL")
    def cell(label: String)(f: => String): Cell = Harness.budgeted(spark, label, budget)(f)

    def motifRow(g: DataGraph, name: String, size: Int, runDfs: Boolean): Row =
      (s"$size-Motifs", name, Seq(
        "PRG" -> prgCell(spark, budget, s"prg-m$size-$name")(prgMotifs(g, size)),
        "FCL" -> (if (runDfs) cell(s"fcl-m$size-$name") {
          DfsEnumerator.motifCounts(spark, g, size)._1.values.sum.toString
        } else skip)
      ))

    def cliqueRow(g: DataGraph, name: String, k: Int, runDfs: Boolean): Row =
      (s"$k-Cliques", name, Seq(
        "PRG" -> prgCell(spark, budget, s"prg-c$k-$name")(prgClique(g, k)),
        "FCL" -> (if (runDfs) cell(s"fcl-c$k-$name") {
          DfsEnumerator.cliqueCount(spark, g, k)._1.toString
        } else skip)
      ))

    def fsmCell(label: String)(f: => String): Cell = Harness.budgeted(spark, label, budget * 3)(f)
    def fsmRow(g: DataGraph, name: String, tau: Long): Row =
      (s"FSM tau=$tau", name, Seq(
        "PRG" -> prgCell(spark, budget, s"prg-fsm$tau-$name")(prgFsm(spark, g, tau)),
        "FCL" -> fsmCell(s"fcl-fsm$tau-$name") {
          val (sup, _) = DfsEnumerator.fsmSupports(spark, g, 3)
          s"${sup.count(_._2 >= tau)}f3"
        }
      ))

    def matchRow(pname: String, gs: Seq[(String, DataGraph, Boolean)]): Seq[Row] = {
      val p = EvalPatterns.numbered.find(_._1 == pname).get._2
      gs.map { case (gname, g, runDfs) =>
        (s"Match $pname", gname, Seq(
          "PRG" -> prgCell(spark, budget, s"prg-$pname-$gname")(MatchEngine.countMatches(g, p).toString),
          "FCL" -> (if (runDfs) cell(s"fcl-$pname-$gname") {
            DfsEnumerator.countPattern(spark, g, p)._1.toString
          } else skip)
        ))
      }
    }

    val plainGraphs = Seq(("MI", d.mi, true), ("PA", d.pa, true))
    val rows =
      Seq(
        motifRow(d.mi, "MI", 3, runDfs = true),
        motifRow(d.pa, "PA", 3, runDfs = true),
        motifRow(d.mi, "MI", 4, runDfs = true),
        motifRow(d.pa, "PA", 4, runDfs = true)
      ) ++
        fsmTauMi.map(tau => fsmRow(d.mi, "MI", tau)) ++
        Seq(
          cliqueRow(d.mi, "MI", 3, runDfs = true),
          cliqueRow(d.pa, "PA", 3, runDfs = true),
          cliqueRow(d.mi, "MI", 4, runDfs = true),
          cliqueRow(d.pa, "PA", 4, runDfs = true),
          cliqueRow(d.mi, "MI", 5, runDfs = true),
          cliqueRow(d.pa, "PA", 5, runDfs = true)
        ) ++
        matchRow("p1", plainGraphs) ++
        Seq(
          ("Match p2", "MI", Seq(
            "PRG" -> prgCell(spark, budget, "prg-p2-MI")(MatchEngine.countMatches(d.mi, EvalPatterns.p2).toString),
            "FCL" -> cell("fcl-p2-MI")(DfsEnumerator.countPattern(spark, d.mi, EvalPatterns.p2)._1.toString)
          )),
          ("Match p2", "PA", Seq(
            "PRG" -> prgCell(spark, budget, "prg-p2-PA")(MatchEngine.countMatches(d.paL, EvalPatterns.p2).toString),
            "FCL" -> cell("fcl-p2-PA")(DfsEnumerator.countPattern(spark, d.paL, EvalPatterns.p2)._1.toString)
          ))
        ) ++
        matchRow("p3", plainGraphs) ++
        matchRow("p4", plainGraphs) ++
        matchRow("p5", plainGraphs) ++
        matchRow("p6", plainGraphs)
    (renderTable("Table 4: PRG vs depth-first (FCL=Fractal proxy)", systems, rows), rows)
  }

  // -------------------------------------------------------------- Table 5

  /** PRG vs task-oriented purpose-built (G-Miner proxy). */
  def table5(spark: SparkSession, d: LiteData, budget: Int = Harness.defaultBudget): (String, Seq[Row]) =
    afterBuilds(d, "MI", "PA", "PA-L", "OK", "FR", "OK-L6", "FR-L6") {
    val systems = Seq("PRG", "GM")
    def cell(label: String)(f: => String): Cell = Harness.budgeted(spark, label, budget)(f)

    val cliqueGraphs = Seq(("MI", d.mi), ("PA", d.pa), ("OK", d.ok), ("FR", d.fr))
    val p2Graphs = Seq(("MI", d.mi), ("PA", d.paL), ("OK", d.okL), ("FR", d.frL))

    val rows =
      cliqueGraphs.map { case (name, g) =>
        ("3-Cliques", name, Seq(
          "PRG" -> prgCell(spark, budget, s"prg-c3-$name")(prgClique(g, 3)),
          "GM" -> cell(s"gm-c3-$name")(GMinerStyle.triangleCount(spark, g).toString)
        ))
      } ++
        p2Graphs.map { case (name, g) =>
          ("Match p2", name, Seq(
            "PRG" -> prgCell(spark, budget, s"prg-p2-$name")(MatchEngine.countMatches(g, EvalPatterns.p2).toString),
            "GM" -> cell(s"gm-p2-$name")(GMinerStyle.countP2(spark, g, 0, 1, 2, 3).toString)
          ))
        }
    (renderTable("Table 5: PRG vs task-oriented (GM=G-Miner proxy)", systems, rows), rows)
  }

  // -------------------------------------------------------------- Table 6

  /** Constraint mining: anti-vertex p7, anti-edge p8, clique existence. */
  def table6(spark: SparkSession, d: LiteData, budget: Int = Harness.defaultBudget): (String, Seq[Row]) =
    afterBuilds(d, "MI", "PA", "OK", "FR", "OK+K6") {
    val systems = Seq("PRG")
    def cell(label: String)(f: => String): Cell = Harness.budgeted(spark, label, budget)(f)
    val graphs = Seq(("MI", d.mi), ("PA", d.pa), ("OK", d.ok), ("FR", d.fr))

    val rows =
      graphs.map { case (name, g) =>
        ("Anti-Vertex p7", name,
          Seq("PRG" -> cell(s"p7-$name")(MatchEngine.countMatches(g, EvalPatterns.p7).toString)))
      } ++
        graphs.map { case (name, g) =>
          ("Anti-Edge p8", name,
            Seq("PRG" -> cell(s"p8-$name")(MatchEngine.countMatches(g, EvalPatterns.p8).toString)))
        } ++
        graphs.map { case (name, g) =>
          ("Exist 14-Clique", name,
            Seq("PRG" -> cell(s"e14-$name")(Existence.exists(g, Patterns.generateClique(14)).toString)))
        } ++
        Seq(
          ("Exist 6-Clique", "OK+K6",
            Seq("PRG" -> cell("e6-okc")(Existence.exists(d.okClique, Patterns.generateClique(6)).toString))),
          ("CC > 0.1", "MI",
            Seq("PRG" -> cell("cc-MI")(ClusteringCoeff.exceedsBound(d.mi, 0.1).toString)))
        )
    (renderTable("Table 6: mining with constraints + existence queries", systems, rows), rows)
  }

  // -------------------------------------------------------------- Fig 10

  /** Symmetry breaking on/off (PRG vs PRG-U), backing Table 1's PRG-U column. */
  def fig10(spark: SparkSession, d: LiteData, budget: Int = Harness.defaultBudget,
            fsmTau: Long = 60): (String, Seq[Row]) = afterBuilds(d, "MI", "PA") {
    val systems = Seq("PRG", "PRG-U")
    def cell(label: String)(f: => String): Cell = Harness.budgeted(spark, label, budget)(f)

    val rows = Seq(
      ("4-Motifs", "MI", Seq(
        "PRG" -> prgCell(spark, budget, "prg-m4-MI")(MotifCount.total(d.mi, 4).toString),
        "PRG-U" -> cell("prgu-m4-MI")(MotifCount.total(d.mi, 4, symmetry = false).toString)
      )),
      ("4-Motifs", "PA", Seq(
        "PRG" -> prgCell(spark, budget, "prg-m4-PA")(MotifCount.total(d.pa, 4).toString),
        "PRG-U" -> cell("prgu-m4-PA")(MotifCount.total(d.pa, 4, symmetry = false).toString)
      )),
      (s"FSM tau=$fsmTau", "MI", Seq(
        "PRG" -> prgCell(spark, budget, s"prg-fsm$fsmTau-MI")(prgFsm(spark, d.mi, fsmTau)),
        "PRG-U" -> Harness.budgeted(spark, "prgu-fsm-MI", budget * 3) {
          val r = Fsm.run(spark, d.mi, maxEdges = 3, threshold = fsmTau, symmetry = false)
          s"${r.totalPatterns}f"
        }
      ))
    )
    (renderTable("Fig 10: benefit of symmetry breaking (PRG vs PRG-U)", systems, rows), rows)
  }

  // -------------------------------------------------------------- Fig 1

  /** Fig 1b/1c-style profiles: matches explored / canonicality / isomorphism
    * computations vs result size, on the PA-lite graph.
    */
  def fig1(spark: SparkSession, d: LiteData, budget: Int = Harness.defaultBudget): (String, Seq[Row]) = afterBuilds(d, "PA") {
    def cell(label: String)(f: => String): Cell = Harness.budgeted(spark, label, budget)(f)
    def fmt(explored: Long, canon: Long, iso: Long, result: Long): String =
      s"explored=$explored (${if (result == 0) "-" else f"${explored.toDouble / result}%.1fx"}) canon=$canon iso=$iso"

    val g = d.pa
    // PRG's explored count: the partial matches its executor accepted at
    // every join-order position, so non-matching prefixes count too.
    def prg(ps: Seq[Pattern]): Cell = {
      val rs = ps.map(p => PlanExecutor.run(g, Planner.plan(p)))
      Cell(fmt(rs.map(_.accepted.sum).sum, 0, 0, rs.map(_.count).sum), None)
    }
    val rows = Seq(
      ("4-Clique profile", "PA", Seq(
        "PRG" -> prg(Seq(Patterns.generateClique(4))),
        "RS" -> cell("rs-prof-c4") {
          val (n, p) = BfsEnumerator.cliqueCount(spark, g, 4, rstream = true)
          fmt(p.explored, p.canonicality, p.isomorphism, n)
        },
        "ABQ" -> cell("abq-prof-c4") {
          val (n, p) = BfsEnumerator.cliqueCount(spark, g, 4, rstream = false)
          fmt(p.explored, p.canonicality, p.isomorphism, n)
        },
        "FCL" -> cell("fcl-prof-c4") {
          val (n, p) = DfsEnumerator.cliqueCount(spark, g, 4)
          fmt(p.explored, p.canonicality, p.isomorphism, n)
        }
      )),
      ("3-Motif profile", "PA", Seq(
        "PRG" -> prg(Patterns.generateAllVertexInduced(3).map(VertexInduced.toEdgeInduced)),
        "RS" -> cell("rs-prof-m3") {
          val (c, p) = BfsEnumerator.motifCounts(spark, g, 3, rstream = true)
          fmt(p.explored, p.canonicality, p.isomorphism, c.values.sum)
        },
        "ABQ" -> cell("abq-prof-m3") {
          val (c, p) = BfsEnumerator.motifCounts(spark, g, 3, rstream = false)
          fmt(p.explored, p.canonicality, p.isomorphism, c.values.sum)
        },
        "FCL" -> cell("fcl-prof-m3") {
          val (c, p) = DfsEnumerator.motifCounts(spark, g, 3)
          fmt(p.explored, p.canonicality, p.isomorphism, c.values.sum)
        }
      ))
    )
    (renderTable("Fig 1: profiling (explored/canonicality/isomorphism vs result)",
      Seq("PRG", "RS", "ABQ", "FCL"), rows), rows)
  }
}
