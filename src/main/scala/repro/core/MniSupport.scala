package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.reflect.runtime.universe.TypeTag
import repro.pattern.{Automorphism, CanonicalForm, Pattern}

/** Minimum node image (MNI) support computation (§2.1, §3.2.1, §5.5).
  *
  * Peregrine maintains per-pattern ''domains'' — for each pattern vertex,
  * the set of data vertices matched to it — and defines support as the
  * minimum domain size. Peregrine implements domains as Roaring bitmaps
  * merged by the aggregator thread; the dataflow analogue is a
  * `countDistinct` aggregation.
  *
  * Subtlety (paper §6.6): with symmetry breaking, each unique subgraph is
  * matched once, in its canonical orientation only, while MNI is defined
  * over ''all'' isomorphisms. Since every isomorphism is a canonical match
  * composed with a pattern automorphism, the exact domains are recovered by
  * merging raw domains across each automorphism orbit of the (labeled)
  * pattern before taking the minimum.
  */
object MniSupport {

  import MatchEngine.{lcol, mcol}

  /** MNI support of fully-labeled (or unlabeled) pattern `p` given its
    * canonical match DataFrame (columns `m_<v>`).
    */
  def support(p: Pattern, matches: DataFrame): Long = {
    val keyed = matches.select(lit(0) as "key", array(p.regularVertices.map(v => col(mcol(v))): _*) as "vs")
    supportsByKey[Int](keyed, _ => p).headOption.map(_._2).getOrElse(0L)
  }

  /** Dynamic label discovery (§3.2.1): given matches of a partially-labeled
    * pattern `p` with discovered-label columns `l_<v>`, group matches by the
    * canonicalized fully-labeled pattern they instantiate and compute each
    * labeled pattern's MNI support.
    *
    * Returns (fully-labeled pattern, support) pairs. Canonicalization uses
    * the automorphisms of `p` (wildcards permute only among wildcards), so
    * e.g. the A–B and B–A labelings of a symmetric edge collapse into one
    * labeled pattern; domains are then orbit-merged under the labeled
    * pattern's own automorphisms, as in `support`.
    */
  def labeledSupports(spark: SparkSession, p: Pattern, matches: DataFrame): Seq[(Pattern, Long)] = {
    val reg = p.regularVertices
    val k = reg.size
    // Position permutations: for automorphism σ, perm(j) = index of σ(reg(j)).
    val idx = reg.zipWithIndex.toMap
    val perms: Array[Array[Int]] =
      Automorphism.all(p).map(sigma => reg.map(x => idx(sigma(x))).toArray).toArray

    val labExprs = reg.map(v => p.getLabel(v).map(l => lit(l)).getOrElse(col(lcol(v))).cast("int"))
    val vExprs = reg.map(v => col(mcol(v)))

    val canonUdf = udf { (ls: Seq[Int], vs: Seq[Long]) =>
      var bestLs: Seq[Int] = null
      var bestVs: Seq[Long] = null
      for (perm <- perms) {
        val cls = (0 until k).map(j => ls(perm(j)))
        if (bestLs == null || lexLt(cls, bestLs)) {
          bestLs = cls
          bestVs = (0 until k).map(j => vs(perm(j)))
        }
      }
      (bestLs, bestVs)
    }

    val keyed = matches
      .select(array(labExprs: _*) as "ls", array(vExprs: _*) as "vs")
      .select(canonUdf(col("ls"), col("vs")) as "c")
      .select(col("c._1") as "key", col("c._2") as "vs")

    // The key is the canonical label sequence over `reg`.
    def labeled(key: collection.Seq[Int]): Pattern =
      reg.zipWithIndex.foldLeft(p) { case (acc, (v, j)) => acc.addLabel(v, key(j)) }
    supportsByKey[collection.Seq[Int]](keyed, labeled)
      .map { case (pat, s) => (CanonicalForm.canonicalize(pat)._1, s) }
  }

  /** MNI support of every pattern in `keyed`, which holds one row per match:
    * a pattern key (column `key`) and the matched data vertices in the order
    * of that pattern's regular vertices (column `vs`). `pattern` decodes a
    * key. Each position's domain is merged across its automorphism orbit
    * under the decoded pattern's own automorphisms; support is the smallest
    * merged domain. Returns (decoded pattern, support) per distinct key.
    */
  def supportsByKey[K: TypeTag](keyed: DataFrame, pattern: K => Pattern): Seq[(Pattern, Long)] = {
    val cached = keyed.cache()
    try {
      val keys = cached.select("key").distinct().collect().toSeq.map(_.getAs[K](0))
      if (keys.isEmpty) return Seq.empty
      // Per pattern: orbit id of each position under its own Aut.
      val keyInfo: Map[K, (Pattern, Seq[Int])] = keys.map { key =>
        val pat = pattern(key)
        val reg = pat.regularVertices
        val orbits = Automorphism.orbitsOf(reg, Automorphism.all(pat))
        key -> (pat, reg.map(v => orbits.indexWhere(_.contains(v))))
      }.toMap
      val orbitMaps = keyInfo.map { case (key, (_, orbitOf)) => (key, orbitOf) }
      val orbitUdf = udf((key: K, pos: Int) => orbitMaps(key)(pos))
      cached
        .select(col("key"), posexplode(col("vs")) as Seq("pos", "v"))
        .withColumn("orbit", orbitUdf(col("key"), col("pos")))
        .groupBy("key", "orbit")
        .agg(countDistinct("v") as "c")
        .groupBy("key")
        .agg(min("c") as "support")
        .collect()
        .map(r => (keyInfo(r.getAs[K](0))._1, r.getLong(1)))
        .toSeq
    } finally cached.unpersist()
  }

  private def lexLt(a: Seq[Int], b: Seq[Int]): Boolean = {
    var i = 0
    while (i < a.size && i < b.size) {
      if (a(i) < b(i)) return true
      if (a(i) > b(i)) return false
      i += 1
    }
    a.size < b.size
  }
}
