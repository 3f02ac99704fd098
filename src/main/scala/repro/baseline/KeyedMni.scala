package repro.baseline

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.MniSupport
import repro.pattern.{Pattern, PatternCodec}

/** MNI support of the matches the pattern-unaware baselines list: they
  * aggregate rows instead of the executor's domain bitmaps.
  */
object KeyedMni {

  /** MNI support of every pattern in `keyed`, which holds one row per match:
    * a `PatternCodec` key (column `key`) and the matched data vertices in the
    * order of that pattern's regular vertices (column `vs`). Each position's
    * domain is merged across its automorphism orbit under the decoded
    * pattern's own automorphisms; support is the smallest merged domain.
    * Returns (decoded pattern, support) per distinct key.
    */
  def supports(keyed: DataFrame): Seq[(Pattern, Long)] = {
    val cached = keyed.cache()
    try {
      val keys = cached.select("key").distinct().collect().toSeq.map(_.getString(0))
      if (keys.isEmpty) return Seq.empty
      val keyInfo: Map[String, (Pattern, Seq[Int])] = keys.map { key =>
        val pat = PatternCodec.decode(key)
        key -> (pat, MniSupport.orbitIds(pat))
      }.toMap
      val orbitMaps = keyInfo.map { case (key, (_, orbitOf)) => (key, orbitOf) }
      val orbitUdf = udf((key: String, pos: Int) => orbitMaps(key)(pos))
      cached
        .select(col("key"), posexplode(col("vs")) as Seq("pos", "v"))
        .withColumn("orbit", orbitUdf(col("key"), col("pos")))
        .groupBy("key", "orbit")
        .agg(countDistinct("v") as "c")
        .groupBy("key")
        .agg(min("c") as "support")
        .collect()
        .map(r => (keyInfo(r.getString(0))._1, r.getLong(1)))
        .toSeq
    } finally cached.unpersist()
  }
}
