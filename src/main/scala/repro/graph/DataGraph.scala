package repro.graph

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** The data-graph substrate of the matching engine.
  *
  * Vertices are relabeled so that id order IS the degree order of §5.2:
  * v_i < v_j ⟺ (deg(v_i), orig(v_i)) < (deg(v_j), orig(v_j)). The engine's
  * symmetry-breaking predicates (`m(a) < m(b)`) therefore double as the
  * paper's degree-based load-balancing order, and "high-to-low" exploration
  * corresponds to descending ids.
  *
  * @param edges    canonical undirected edges, columns (src, dst), src < dst
  * @param adj      symmetric edge relation (both directions), columns (src, dst)
  * @param vertices single column `v` — every vertex incident to an edge
  * @param labels   optional (v, lab) after the same relabeling
  * @param mapping  (orig, v): original id → degree-ranked id (for debugging)
  *
  * The plan executor and the pattern-unaware baselines read the graph as a
  * broadcast `Csr` (and, where they read labels, a broadcast label array).
  * Both are built on first use, the way the cached relations fill on their
  * first scan, so a graph that is only queried through joins never pays for
  * them.
  */
final case class DataGraph(
    edges: DataFrame,
    adj: DataFrame,
    vertices: DataFrame,
    labels: Option[DataFrame],
    mapping: DataFrame,
    numVertices: Long,
    numEdges: Long
) {
  private var csrB: Broadcast[Csr] = _
  private var labelsB: Broadcast[Array[Int]] = _

  /** The graph as a broadcast CSR, built from one collect of `edges`. */
  def csr: Broadcast[Csr] = synchronized {
    if (csrB == null) {
      require(numVertices < Int.MaxValue, s"$numVertices vertices do not fit Int ids")
      val packed = edges.rdd
        .mapPartitions(rows => Iterator(rows.map(r => (r.getLong(0) << 32) | r.getLong(1)).toArray))
        .collect()
        .flatten
      csrB = edges.sparkSession.sparkContext.broadcast(Csr.fromPackedEdges(numVertices.toInt, packed))
    }
    csrB
  }

  /** Label of every vertex id (`Csr.NoLabel` where none), broadcast; `None`
    * for an unlabeled graph.
    */
  def labelArray: Option[Broadcast[Array[Int]]] = labels.map { lf =>
    synchronized {
      if (labelsB == null) {
        val arr = Array.fill(numVertices.toInt)(Csr.NoLabel)
        for (r <- lf.collect()) arr(r.getLong(0).toInt) = r.getInt(1)
        labelsB = lf.sparkSession.sparkContext.broadcast(arr)
      }
      labelsB
    }
  }

  /** Release cached state (benchmarks build many graphs). */
  def unpersist(): Unit = {
    edges.unpersist(); adj.unpersist(); vertices.unpersist()
    labels.foreach(_.unpersist()); mapping.unpersist()
    synchronized {
      Option(csrB).foreach(_.destroy()); csrB = null
      Option(labelsB).foreach(_.destroy()); labelsB = null
    }
  }
}

object DataGraph {

  /** Build the substrate from a raw undirected edge list (columns src, dst;
    * orientation/duplicates/self-loops are normalized away) and optional
    * vertex labels (columns v, lab). Isolated vertices are dropped — they
    * cannot participate in any match of a pattern with at least one edge.
    */
  def fromEdges(spark: SparkSession, rawEdges: DataFrame, rawLabels: Option[DataFrame] = None): DataGraph = {
    val clean = rawEdges
      .select(col("src").cast("long") as "a", col("dst").cast("long") as "b")
      .filter(col("a") =!= col("b"))
      .select(least(col("a"), col("b")) as "src", greatest(col("a"), col("b")) as "dst")
      .distinct()

    val sym = clean.union(clean.select(col("dst") as "src", col("src") as "dst"))
    val degrees = sym.groupBy(col("src") as "orig").agg(count(lit(1)) as "deg")
    // Global rank — a single-partition window is fine at reproduction scale
    // (lite graphs are ≤ ~1M edges); at paper scale this would be a sort +
    // zipWithIndex.
    val mapping = degrees
      .withColumn("v", row_number().over(Window.orderBy(col("deg"), col("orig"))).cast("long") - 1)
      .select(col("orig"), col("v"))
      .cache()

    val edges0 = clean
      .join(mapping.withColumnRenamed("orig", "src").withColumnRenamed("v", "sv"), "src")
      .join(mapping.withColumnRenamed("orig", "dst").withColumnRenamed("v", "dv"), "dst")
      .select(least(col("sv"), col("dv")) as "src", greatest(col("sv"), col("dv")) as "dst")
    val edges = edges0.cache()
    val adj = edges.union(edges.select(col("dst") as "src", col("src") as "dst")).cache()
    val vertices = mapping.select(col("v")).cache()

    val labels = rawLabels.map { lf =>
      lf.select(col("v").cast("long") as "orig", col("lab").cast("int") as "lab")
        .join(mapping, "orig")
        .select(col("v"), col("lab"))
        .cache()
    }

    val nE = edges.count()
    val nV = vertices.count()
    DataGraph(edges, adj, vertices, labels, mapping, nV, nE)
  }
}
