package repro.baseline

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.util.LongAccumulator
import repro.graph.{Csr, DataGraph}
import repro.pattern.{Automorphism, Pattern}

/** Depth-first, pattern-UNaware exploration — the Fractal [12] model of
  * §6.3. Each data vertex is a task; tasks enumerate ALL connected (induced)
  * subgraphs reachable from their start vertex via ESU-style recursive
  * extension, keeping no intermediate state materialized (the DFS memory
  * advantage the paper credits Fractal with). Because the exploration is
  * not guided by the pattern, each complete subgraph still pays an
  * isomorphism computation to decide whether / how it matches — the cost
  * Peregrine's plan-guided engine avoids.
  */
object DfsEnumerator {

  final case class Accs(
      explored: LongAccumulator,
      canonicality: LongAccumulator,
      isomorphism: LongAccumulator
  ) {
    def toProfile: Profile = Profile(explored.value, canonicality.value, isomorphism.value)
  }

  private def newAccs(spark: SparkSession): Accs =
    Accs(
      spark.sparkContext.longAccumulator("dfs.explored"),
      spark.sparkContext.longAccumulator("dfs.canonicality"),
      spark.sparkContext.longAccumulator("dfs.isomorphism")
    )

  /** ESU enumeration of every connected induced `k`-vertex subgraph, one
    * row per set (column `vs`, the root-first generation order). With
    * `cliquesOnly`, extension is restricted to common neighbors — Fractal's
    * native clique support (isomorphism count 0 in Fig 1b).
    */
  private def esuFrom(
      root: Int,
      csr: Csr,
      k: Int,
      cliquesOnly: Boolean,
      accs: Accs
  ): Seq[Seq[Long]] = {
    val out = collection.mutable.ArrayBuffer.empty[Seq[Long]]
    var explored = 0L
    var checks = 0L

    def nExcl(w: Int, sub: Seq[Int], subNbr: Set[Int]): Seq[Int] =
      csr.neighbors(w).toSeq.filter { u =>
        checks += 1
        u > root && !sub.contains(u) && !subNbr(u)
      }

    def extend(sub: List[Int], ext: List[Int], subNbr: Set[Int]): Unit = {
      explored += 1
      if (sub.size == k) { out += sub.reverse.map(_.toLong); return }
      var rest = ext
      while (rest.nonEmpty) {
        val w = rest.head
        rest = rest.tail
        if (!cliquesOnly || sub.forall(u => { checks += 1; csr.hasEdge(u, w) })) {
          val fresh = nExcl(w, sub, subNbr)
          extend(w :: sub, rest ++ fresh, subNbr ++ csr.neighbors(w))
        }
      }
    }

    val initExt = csr.neighbors(root).toSeq.filter { u => checks += 1; u > root }
    extend(List(root), initExt.toList, csr.neighbors(root).toSet + root)
    accs.explored.add(explored)
    accs.canonicality.add(checks)
    out.toSeq
  }

  def inducedSets(
      spark: SparkSession,
      g: DataGraph,
      k: Int,
      cliquesOnly: Boolean = false
  ): (DataFrame, Accs) = {
    import spark.implicits._
    val accs = newAccs(spark)
    val csr = g.csr
    val sets = g.vertices
      .select(col("v"))
      .as[Long]
      .flatMap(root => esuFrom(root.toInt, csr.value, k, cliquesOnly, accs))
      .toDF("vs")
    (sets, accs)
  }

  /** Motif counting (vertex-induced): isomorphism computation per set. */
  def motifCounts(spark: SparkSession, g: DataGraph, size: Int): (Map[String, Long], Profile) = {
    val (sets, accs) = inducedSets(spark, g, size)
    val csr = g.csr
    val keyUdf = udf { (vs: Seq[Long]) =>
      accs.isomorphism.add(1)
      IsoCheck.patternKeyAndAssignment(IsoCheck.inducedPattern(vs, csr.value), vs)._1
    }
    val grouped = sets.select(keyUdf(col("vs")) as "key").groupBy("key").count().collect()
    (grouped.map(r => r.getString(0) -> r.getLong(1)).toMap, accs.toProfile)
  }

  /** Native clique counting (no isomorphism checks, as in Fig 1b). */
  def cliqueCount(spark: SparkSession, g: DataGraph, k: Int): (Long, Profile) = {
    val (sets, accs) = inducedSets(spark, g, k, cliquesOnly = true)
    val n = sets.count()
    (n, accs.toProfile)
  }

  /** Pattern matching: enumerate all k-vertex induced subgraphs, then count
    * the target's spanning embeddings in each by brute force — the
    * per-subgraph isomorphism computation of a pattern-unaware system —
    * and divide by the automorphism multiplicity.
    */
  def countPattern(spark: SparkSession, g: DataGraph, p: Pattern): (Long, Profile) = {
    import spark.implicits._
    val k = p.regularVertices.size
    require(p.antiEdges.isEmpty, "baseline pattern matching handles plain patterns only")
    val (sets, accs) = inducedSets(spark, g, k)
    val csr = g.csr
    val labels = g.labelArray
    val total = sets
      .select(col("vs"))
      .as[Seq[Long]]
      .map { vs =>
        accs.isomorphism.add(1)
        IsoCheck.countSpanningEmbeddings(p, vs, csr.value, labels.map(_.value).orNull)
      }
      .agg(sum("value"))
      .head() match {
      case r if r.isNullAt(0) => 0L
      case r                  => r.getLong(0)
    }
    val mult = Automorphism.regularMultiplicity(p)
    require(total % mult == 0, s"embedding total $total not divisible by $mult")
    (total / mult, accs.toProfile)
  }

  /** FSM: ESU over the line graph (edge-growth DFS), one isomorphism
    * computation per complete k-edge subgraph, then MNI aggregation.
    */
  def fsmSupports(
      spark: SparkSession,
      g: DataGraph,
      kEdges: Int
  ): (Seq[(Pattern, Long)], Profile) = {
    import spark.implicits._
    val accs = newAccs(spark)
    val labels = g.labelArray
    val idxB = spark.sparkContext.broadcast(EdgeIndex(g.csr.value))

    val keyed = spark
      .range(idxB.value.edges.length)
      .as[Long]
      .flatMap { rootId =>
        val idx = idxB.value
        def nbrs(eid: Int): Seq[Int] = {
          val (u, v) = idx.edges(eid)
          (idx.incidentEdges(u) ++ idx.incidentEdges(v)).toSeq.filter(_ != eid)
        }
        val out = collection.mutable.ArrayBuffer.empty[Seq[Int]]
        var explored = 0L; var checks = 0L
        def extend(sub: List[Int], ext: List[Int], subNbr: Set[Int]): Unit = {
          explored += 1
          if (sub.size == kEdges) { out += sub.reverse; return }
          var rest = ext
          while (rest.nonEmpty) {
            val w = rest.head
            rest = rest.tail
            val fresh = nbrs(w).filter { u => checks += 1; u > rootId && !sub.contains(u) && !subNbr(u) }
            extend(w :: sub, rest ++ fresh, subNbr ++ nbrs(w))
          }
        }
        val root = rootId.toInt
        val initExt = nbrs(root).filter { u => checks += 1; u > rootId }
        extend(List(root), initExt.toList, nbrs(root).toSet + root)
        accs.explored.add(explored); accs.canonicality.add(checks)
        out.toSeq.map { eids =>
          accs.isomorphism.add(1)
          val es = eids.map(idx.edges)
          val (pat, vs) = IsoCheck.edgePattern(es, labels.map(_.value).orNull)
          IsoCheck.patternKeyAndAssignment(pat, vs)
        }
      }
      .toDF("key", "vs")

    val supports = try KeyedMni.supports(keyed) finally idxB.destroy()
    (supports, accs.toProfile)
  }

  /** Indexed undirected edge list + incidence over the CSR's ids, for
    * edge-growth ESU: edge ids follow sorted canonical (src < dst) order.
    */
  private final case class EdgeIndex(edges: Array[(Long, Long)], incident: Map[Long, Array[Int]]) {
    def incidentEdges(v: Long): Array[Int] = incident.getOrElse(v, Array.empty[Int])
  }

  private object EdgeIndex {
    def apply(csr: Csr): EdgeIndex = {
      val edges = (for (u <- 0 until csr.numVertices; v <- csr.neighbors(u) if v > u) yield (u.toLong, v.toLong)).toArray
      val incident = edges.zipWithIndex
        .flatMap { case ((u, v), i) => Seq(u -> i, v -> i) }
        .groupBy(_._1)
        .map { case (v, arr) => v -> arr.map(_._2).sorted }
      EdgeIndex(edges, incident)
    }
  }
}
