package repro.graph

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DataType, IntegerType, LongType, StructField, StructType}

/** The data-graph substrate of the matching engine.
  *
  * Vertices are relabeled so that id order IS the degree order of §5.2:
  * v_i < v_j ⟺ (deg(v_i), orig(v_i)) < (deg(v_j), orig(v_j)). The engine's
  * symmetry-breaking predicates (`m(a) < m(b)`) therefore double as the
  * paper's degree-based load-balancing order, and "high-to-low" exploration
  * corresponds to descending ids.
  *
  * A graph is built by `DataGraph.fromEdges` from driver arrays
  * (`Edges`, `Labels`), and is held on the driver as a `Csr` over those
  * ids, a label per id (`Csr.NoLabel` where none) and the original id of
  * each id. The plan executor and the pattern-unaware baselines read the
  * first two as broadcasts (`csr`, `labelArray`), sent on first use.
  *
  * A graph belongs to the session `spark` it was built on: every query on
  * it (jobs, broadcasts, accumulators, the relations below) runs there, so
  * no query takes a session of its own.
  *
  * The relational views are DataFrames over the same arrays, made on first
  * use and never cached (a scan regenerates its rows from the arrays):
  *
  *  - `edges`: canonical undirected edges, columns (src, dst), src < dst;
  *  - `adj`: symmetric edge relation (both directions), columns (src, dst);
  *  - `vertices`: single column `v` — every vertex incident to an edge;
  *  - `labels`: optional (v, lab) after the same relabeling, one row per
  *    labeled vertex;
  *  - `mapping`: (orig, v), original id → degree-ranked id.
  */
final class DataGraph private (
    val spark: SparkSession,
    local: Csr,
    localLabels: Option[Array[Int]],
    origIds: Array[Long] // original id of each degree-ranked id
) {
  val numVertices: Long = local.numVertices
  val numEdges: Long = local.nbrs.length / 2

  /** Whether the graph carries a label relation. */
  def labeled: Boolean = localLabels.isDefined

  private var csrB: Broadcast[Csr] = _
  private var labelsB: Broadcast[Array[Int]] = _

  /** The graph as a broadcast CSR. */
  def csr: Broadcast[Csr] = synchronized {
    if (csrB == null) csrB = spark.sparkContext.broadcast(local)
    csrB
  }

  /** Label of every vertex id (`Csr.NoLabel` where none), broadcast; `None`
    * for an unlabeled graph.
    */
  def labelArray: Option[Broadcast[Array[Int]]] = localLabels.map { arr =>
    synchronized {
      if (labelsB == null) labelsB = spark.sparkContext.broadcast(arr)
      labelsB
    }
  }

  lazy val edges: DataFrame = {
    val c = local
    relation("src" -> LongType, "dst" -> LongType) { v =>
      (c.offsets(v) until c.offsets(v + 1)).iterator.map(i => c.nbrs(i)).filter(_ > v).map(w => Row(v.toLong, w.toLong))
    }
  }

  lazy val adj: DataFrame = {
    val c = local
    relation("src" -> LongType, "dst" -> LongType) { v =>
      (c.offsets(v) until c.offsets(v + 1)).iterator.map(i => Row(v.toLong, c.nbrs(i).toLong))
    }
  }

  lazy val vertices: DataFrame = relation("v" -> LongType)(v => Iterator(Row(v.toLong)))

  lazy val labels: Option[DataFrame] = localLabels.map { arr =>
    relation("v" -> LongType, "lab" -> IntegerType) { v =>
      if (arr(v) == Csr.NoLabel) Iterator.empty else Iterator(Row(v.toLong, arr(v)))
    }
  }

  lazy val mapping: DataFrame = {
    val orig = origIds
    relation("orig" -> LongType, "v" -> LongType)(v => Iterator(Row(orig(v), v.toLong)))
  }

  /** A DataFrame of the rows `rows` yields for each vertex id. */
  private def relation(cols: (String, DataType)*)(rows: Int => Iterator[Row]): DataFrame = {
    val ids = spark.sparkContext.parallelize(0 until numVertices.toInt)
    spark.createDataFrame(ids.flatMap(rows), StructType(cols.map { case (c, t) => StructField(c, t, nullable = false) }))
  }

  /** Release the broadcasts (benchmarks build many graphs); a later query
    * broadcasts the arrays again.
    */
  def unpersist(): Unit = synchronized {
    Option(csrB).foreach(_.destroy()); csrB = null
    Option(labelsB).foreach(_.destroy()); labelsB = null
  }
}

object DataGraph {

  /** The largest array the JVM allocates. */
  private val MaxArray = Int.MaxValue - 8

  /** A raw undirected edge list held on the driver: edge k joins `src(k)`
    * and `dst(k)`. Orientation, repeats and self-loops are allowed;
    * `fromEdges` normalizes them away.
    */
  final case class Edges(src: Array[Long], dst: Array[Long]) {
    require(src.length == dst.length, s"${src.length} sources for ${dst.length} destinations")
    def size: Int = src.length

    /** These edges followed by `other`'s. */
    def ++(other: Edges): Edges = Edges(src ++ other.src, dst ++ other.dst)
  }

  /** Vertex labels held on the driver: vertex `v(k)` has label `lab(k)`. */
  final case class Labels(v: Array[Long], lab: Array[Int]) {
    require(v.length == lab.length, s"${v.length} vertices for ${lab.length} labels")
    def size: Int = v.length
  }

  /** Build the substrate from a raw undirected edge list (orientation,
    * duplicates and self-loops are normalized away) and optional vertex
    * labels. Isolated vertices are dropped — they cannot participate in any
    * match of a pattern with at least one edge; so are their labels.
    *
    * A vertex carries at most one label: repeated pairs with its label
    * collapse, and two different labels fail a `require`.
    *
    * Everything runs on the driver, over the given arrays: no Spark job,
    * no Catalyst analysis, optimization or code generation. 2·|E| (before
    * deduplication) must fit an `Int`-indexed array, which also bounds |V|
    * below `Int.MaxValue`. Original ids are kept whole (they may exceed 32
    * bits) until they are ranked.
    */
  def fromEdges(spark: SparkSession, edges: Edges, labels: Option[Labels]): DataGraph = {
    // (a, b) pairs, a < b, flattened, self-loops skipped.
    require(2L * edges.size <= MaxArray, s"${edges.size} edges do not fit the driver's Int-indexed arrays")
    val pairs = new Array[Long](2 * edges.size)
    var filled = 0
    for (k <- 0 until edges.size) {
      val a = edges.src(k); val b = edges.dst(k)
      if (a != b) { pairs(filled) = math.min(a, b); pairs(filled + 1) = math.max(a, b); filled += 2 }
    }
    val ends = java.util.Arrays.copyOf(pairs, filled)

    // Dense indices 0..n-1 in original-id order.
    val ids = ends.clone()
    java.util.Arrays.parallelSort(ids)
    val n = dedupe(ids)
    def index(orig: Long): Int = java.util.Arrays.binarySearch(ids, 0, n, orig)

    val packed = Array.tabulate(ends.length / 2)(k => (index(ends(2 * k)).toLong << 32) | index(ends(2 * k + 1)))
    java.util.Arrays.parallelSort(packed)
    val m = dedupe(packed)

    // Rank by (degree, original id): a counting sort by degree that keeps
    // index order within a degree.
    val deg = new Array[Int](n)
    for (k <- 0 until m) { deg((packed(k) >>> 32).toInt) += 1; deg(packed(k).toInt) += 1 }
    val start = new Array[Int](deg.foldLeft(0)(math.max) + 2)
    for (d <- deg) start(d + 1) += 1
    for (d <- 1 until start.length) start(d) += start(d - 1)
    val rank = new Array[Int](n)
    val origIds = new Array[Long](n)
    for (i <- 0 until n) {
      rank(i) = start(deg(i)); start(deg(i)) += 1
      origIds(rank(i)) = ids(i)
    }
    val ranked = Array.tabulate(m)(k => (rank((packed(k) >>> 32).toInt).toLong << 32) | rank(packed(k).toInt))

    val labelArr = labels.map { ls =>
      val arr = Array.fill(n)(Csr.NoLabel)
      for (k <- 0 until ls.size) {
        val i = index(ls.v(k))
        if (i >= 0) {
          val v = rank(i)
          val lab = ls.lab(k)
          require(lab != Csr.NoLabel, s"label $lab is reserved for unlabeled vertices")
          require(arr(v) == Csr.NoLabel || arr(v) == lab, s"vertex ${ls.v(k)} has two labels, ${arr(v)} and $lab")
          arr(v) = lab
        }
      }
      arr
    }

    new DataGraph(spark, Csr.fromPackedEdges(n, ranked), labelArr, origIds)
  }

  /** Removes repeats from the sorted `xs` in place; returns the distinct count. */
  private def dedupe(xs: Array[Long]): Int = {
    var n = 0
    for (i <- xs.indices) if (n == 0 || xs(i) != xs(n - 1)) { xs(n) = xs(i); n += 1 }
    n
  }
}
