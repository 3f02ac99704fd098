package minebench

import java.nio.file.{Files, Path}
import java.sql.DriverManager
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row}
import org.duckdb.DuckDBConnection
import repro.graph.DataGraph
import repro.oracle.PatternSql
import repro.pattern.{CanonicalForm, Pattern, Patterns}

/** Reference answers that share nothing with the planner or the engine:
  * DuckDB over the graph's edge and label relations, counting through
  * `oracle.PatternSql`. They are computed outside the timed region.
  */
object References {

  /** One DuckDB database holding `g(src, dst)`, the symmetric edge
    * relation, and `lab(v, lab)` when the graph is labeled.
    */
  final class Duck(g: DataGraph) extends AutoCloseable {
    Class.forName("org.duckdb.DuckDBDriver")
    private val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    load("g", "src BIGINT, dst BIGINT", g.adj)(r => Seq(r.getLong(0), r.getLong(1)))
    for (l <- g.labels) load("lab", "v BIGINT, lab INTEGER", l)(r => Seq(r.getLong(0), r.getInt(1).toLong))

    private def load(table: String, cols: String, df: DataFrame)(row: Row => Seq[Long]): Unit = {
      conn.createStatement.execute(s"CREATE TABLE $table ($cols)")
      val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, table)
      for (r <- df.collect()) { app.beginRow(); row(r).foreach(app.append); app.endRow() }
      app.close()
    }

    private def rows(sql: String): Seq[Seq[Long]] = {
      val rs = conn.createStatement.executeQuery(sql)
      val n = rs.getMetaData.getColumnCount
      Iterator.continually(rs).takeWhile(_.next()).map(r => (1 to n).map(r.getLong)).toSeq
    }

    /** Canonical match count of `p`. */
    def count(p: Pattern): Long = rows(PatternSql.countSql(p)).head.head

    /** Frequent labeled edges by MNI support: for labels a ≠ b the smaller
      * of the two endpoint domains; for a = b the endpoints share one
      * domain, since the automorphism swapping them preserves the labels.
      */
    def frequentEdges(tau: Long): String = {
      val edges = rows(
        """SELECT la, lb, CASE WHEN la = lb THEN count(DISTINCT u) ELSE least(count(DISTINCT u), count(DISTINCT v)) END
          |FROM (SELECT g.src u, g.dst v, a.lab la, b.lab lb FROM g JOIN lab a ON a.v = g.src JOIN lab b ON b.v = g.dst)
          |WHERE la <= lb GROUP BY la, lb""".stripMargin)
      val frequent = edges.collect { case Seq(a, b, s) if s >= tau =>
        (Patterns.generateChain(2).addLabel(1, a.toInt).addLabel(2, b.toInt), s)
      }
      fsmKey(Seq(1 -> frequent))
    }

    def close(): Unit = conn.close()
  }

  /** Frequent labeled patterns as sorted `edges:canonical-key=support` entries. */
  def fsmKey(levels: Seq[(Int, Seq[(Pattern, Long)])]): String =
    levels
      .flatMap { case (e, ps) => ps.map { case (p, s) => s"$e:${CanonicalForm.key(p)}=$s" } }
      .sorted
      .mkString(";")

  /** Reference answers of one workload at one seed, cached in `dir`. */
  def cached(dir: Path, name: String)(compute: => Map[String, String]): Map[String, String] = {
    val file = dir.resolve(name)
    if (Files.exists(file))
      Files.readAllLines(file).asScala.map { l => val i = l.indexOf('\t'); l.take(i) -> l.drop(i + 1) }.toMap
    else {
      val refs = compute
      Files.createDirectories(dir)
      val tmp = Files.createTempFile(dir, name, ".tmp")
      Files.write(tmp, refs.toSeq.sorted.map { case (k, v) => s"$k\t$v" }.asJava)
      Files.move(tmp, file, java.nio.file.StandardCopyOption.ATOMIC_MOVE)
      refs
    }
  }
}
