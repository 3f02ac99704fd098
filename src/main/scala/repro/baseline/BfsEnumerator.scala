package repro.baseline

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.DataGraph
import repro.pattern.{Pattern, PatternCodec}

/** Breadth-first, pattern-UNaware exploration — the Arabesque [52] and
  * RStream [57] model that Fig 1 profiles and §6.2 benchmarks.
  *
  * Embeddings are grown step by step; EVERY level is materialized (cached
  * and counted — the "think like an embedding" superstep barrier), every
  * candidate is generated before any pruning, and uniqueness costs either a
  * per-row canonicality check (Arabesque mode) or a relational dedup over
  * all generation orderings (RStream mode, which is why its explored counts
  * are k!-fold larger). The per-match checks Peregrine never performs are
  * tallied in [[Profile]].
  */
object BfsEnumerator {

  private final class Tally {
    var explored = 0L; var canonicality = 0L; var isomorphism = 0L
    def toProfile: Profile = Profile(explored, canonicality, isomorphism)
  }

  /** All connected induced vertex sets of size `k`, as one row per set
    * (column `vs`, sorted array). `rstream = false` models Arabesque
    * (canonicality check per generated embedding at every step);
    * `rstream = true` models RStream (no early checks, all orderings kept,
    * dedup at the end). `cliquesOnly` models the native clique support both
    * systems have (each step prunes non-cliques; Fig 1b).
    */
  def inducedSets(
      g: DataGraph,
      k: Int,
      rstream: Boolean,
      cliquesOnly: Boolean = false
  ): (DataFrame, Profile) = {
    val t = new Tally
    val csr = g.csr
    val canonUdf = udf((vs: Seq[Long]) => IsoCheck.isCanonicalSeq(vs, csr.value))
    val cliqueUdf = udf { (vs: Seq[Long]) =>
      val w = vs.last.toInt
      vs.init.forall(u => csr.value.hasEdge(u.toInt, w))
    }

    var df = g.vertices.select(array(col("v")) as "vs").cache()
    df.count()
    for (step <- 1 until k) {
      val cand = df
        .select(col("vs"), explode(col("vs")) as "anchor")
        .join(g.adj.select(col("src") as "anchor", col("dst") as "w"), "anchor")
        .filter(!array_contains(col("vs"), col("w")))
        .select(concat(col("vs"), array(col("w"))) as "vs")
        .cache()
      val generated = cand.count()
      t.explored += generated

      var uniqToFree: DataFrame = null
      val next =
        if (rstream) {
          // Relational model: uniqueness by dedup over every ordering; the
          // dedup touches every generated tuple.
          t.canonicality += generated
          val kept = if (cliquesOnly) cand.filter(cliqueUdf(col("vs"))) else cand
          kept.distinct()
        } else {
          // Embedding model: per-row canonicality check, then structural
          // filtering (an isomorphism-flavored check per candidate).
          val uniq = cand.distinct().cache()
          uniqToFree = uniq
          val checked = uniq.count()
          t.canonicality += checked
          val canonical = uniq.filter(canonUdf(col("vs")))
          if (cliquesOnly) {
            t.isomorphism += checked
            canonical.filter(cliqueUdf(col("vs")))
          } else canonical
        }
      // Arabesque mode's last level is the result: cache it sorted.
      val nextCached = (if (!rstream && step == k - 1) next.select(array_sort(col("vs")) as "vs") else next).cache()
      nextCached.count()
      df.unpersist()
      cand.unpersist()
      if (uniqToFree != null) uniqToFree.unpersist()
      df = nextCached
    }

    val result =
      if (rstream) {
        val sets = df.select(array_sort(col("vs")) as "vs").distinct().cache()
        sets.count()
        df.unpersist()
        sets
      } else df
    (result, t.toProfile)
  }

  /** Motif counting on top of BFS enumeration: one isomorphism computation
    * per complete set to identify its pattern (the Fig 1c workload).
    */
  def motifCounts(g: DataGraph, size: Int, rstream: Boolean): (Map[String, Long], Profile) = {
    val (sets, p0) = inducedSets(g, size, rstream)
    val csr = g.csr
    val keyUdf = udf { (vs: Seq[Long]) =>
      IsoCheck.patternKeyAndAssignment(IsoCheck.inducedPattern(vs, csr.value), vs)._1
    }
    val grouped = sets.select(keyUdf(col("vs")) as "key").groupBy("key").count().collect()
    val total = grouped.map(_.getLong(1)).sum
    sets.unpersist()
    (grouped.map(r => r.getString(0) -> r.getLong(1)).toMap,
     Profile(p0.explored, p0.canonicality, p0.isomorphism + total))
  }

  /** Clique counting on top of BFS enumeration (the Fig 1b workload). */
  def cliqueCount(g: DataGraph, k: Int, rstream: Boolean): (Long, Profile) = {
    val (sets, p) = inducedSets(g, k, rstream, cliquesOnly = true)
    val n = sets.count()
    sets.unpersist()
    (n, p)
  }

  /** FSM support computation in the Arabesque filter-process model: grow
    * edge-induced embeddings breadth-first (all levels materialized), dedup
    * each level, run one isomorphism computation per embedding to extract
    * its labeled pattern, aggregate domains over ALL embeddings, and — when
    * a `threshold` is given — drop embeddings of infrequent patterns before
    * the next superstep (anti-monotone pruning, as Arabesque's FSM does).
    * On a labeled graph an embedding with an unlabeled vertex instantiates
    * no labeled pattern: it is dropped from the aggregation and the next
    * superstep, as the engine's label discovery skips it.
    */
  def fsmSupports(g: DataGraph, kEdges: Int, threshold: Option[Long] = None): (Seq[(Pattern, Long)], Profile) = {
    val t = new Tally
    val labels = g.labelArray

    // None (a null struct) for an embedding with an unlabeled vertex.
    val keyUdf = udf { (es: Seq[Long]) =>
      val pairs = es.grouped(2).map(p => (p(0), p(1))).toSeq
      IsoCheck.edgePattern(pairs, labels.map(_.value).orNull).map { case (pat, vs) =>
        IsoCheck.patternKeyAndAssignment(pat, vs)
      }
    }

    /** Per-level aggregation: supports + optional frequency pruning. */
    def aggregateLevel(level: DataFrame): (Seq[(Pattern, Long)], DataFrame) = {
      val withKey = level
        .withColumn("kv", keyUdf(col("es")))
        .filter(col("kv").isNotNull)
        .select(col("es"), col("vs"), col("kv._1") as "key", col("kv._2") as "cvs")
        .cache()
      t.isomorphism += withKey.count()
      val sup = KeyedMni.supports(withKey.select(col("key"), col("cvs") as "vs"))
      threshold match {
        case Some(tau) =>
          val frequent = sup.filter(_._2 >= tau)
          val keys = frequent.map { case (p, _) => PatternCodec.encode(p) }
          val kept = withKey.filter(col("key").isin(keys: _*)).select(col("es"), col("vs")).cache()
          kept.count()
          withKey.unpersist()
          (frequent, kept)
        case None =>
          val kept = withKey.select(col("es"), col("vs")).cache()
          kept.count()
          withKey.unpersist()
          (sup, kept)
      }
    }

    // State: sorted flattened edge list [s1,d1,s2,d2,...] + distinct vertices.
    var df = g.edges
      .select(array(col("src"), col("dst")) as "es", array(col("src"), col("dst")) as "vs")
      .cache()
    df.count()
    var (supports, pruned) = aggregateLevel(df)
    df.unpersist()
    df = pruned

    val extendUdf = udf { (es: Seq[Long], a: Long, w: Long) =>
      val e = if (a < w) Seq(a, w) else Seq(w, a)
      val pairs = es.grouped(2).toSeq
      if (pairs.contains(e)) null
      else (pairs :+ e).sortBy(p => (p(0), p(1))).flatten
    }
    for (_ <- 1 until kEdges) {
      val cand = df
        .select(col("es"), col("vs"), explode(col("vs")) as "anchor")
        .join(g.adj.select(col("src") as "anchor", col("dst") as "w"), "anchor")
        .select(
          extendUdf(col("es"), col("anchor"), col("w")) as "es",
          when(array_contains(col("vs"), col("w")), col("vs"))
            .otherwise(concat(col("vs"), array(col("w")))) as "vs"
        )
        .filter(col("es").isNotNull)
        .cache()
      val generated = cand.count()
      t.explored += generated
      val next = cand.dropDuplicates("es").cache()
      t.canonicality += generated
      next.count()
      df.unpersist(); cand.unpersist()
      val (sup, kept) = aggregateLevel(next)
      next.unpersist()
      supports = sup
      df = kept
    }

    df.unpersist()
    (supports, t.toProfile)
  }
}
