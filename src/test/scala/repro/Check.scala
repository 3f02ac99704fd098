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
    * the independently-compiled counting SQL over the same edge relation.
    */
  def engineVsOracle(spark: SparkSession, g: DataGraph, p: Pattern): Long = {
    val n = MatchEngine.countMatches(g, p)
    valueVsOracle(spark, n, PatternSql.countSql(p), g)
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
