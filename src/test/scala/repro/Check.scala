package repro

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.MatchEngine
import repro.graph.DataGraph
import repro.oracle.PatternSql
import repro.pattern.{CanonicalForm, Pattern, PatternCodec}

/** Shared verification helpers for Spark tests. */
object Check {

  /** Engine count of `p` in `g`, verified against the DuckDB oracle running
    * the independently-compiled counting SQL over the same edge relation,
    * and against the plan executor's count.
    */
  def engineVsOracle(spark: SparkSession, g: DataGraph, p: Pattern): Long = {
    val m = MatchEngine.matches(g, p)
    val cnt = m.agg(count(lit(1)) as "cnt")
    val tables = Seq("g" -> g.adj) ++ g.labels.map("lab" -> _).toSeq
    Oracle.assertEquivalent(cnt, PatternSql.countSql(p), tables: _*)
    val n = m.count()
    assert(MatchEngine.countMatches(g, p) == n, s"executor count of $p differs from the join engine's $n")
    n
  }

  /** Assert a literal Spark-side value equals the oracle's SQL result. */
  def valueVsOracle(spark: SparkSession, value: Long, sql: String, g: DataGraph): Unit = {
    val df = spark.range(1).select(lit(value) as "cnt")
    val tables = Seq("g" -> g.adj) ++ g.labels.map("lab" -> _).toSeq
    Oracle.assertEquivalent(df, sql, tables: _*)
  }

  /** Canonical key comparable across engine patterns and baseline outputs. */
  def key(p: Pattern): String = PatternCodec.encode(CanonicalForm.canonicalize(p)._1)
}
