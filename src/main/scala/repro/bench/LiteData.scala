package repro.bench

import org.apache.spark.sql.SparkSession
import repro.graph.{DataGraph, GraphGen}

/** Lazily-built evaluation datasets shared by the table runners. Each lite
  * graph is built on first use, together with its broadcast CSR and label
  * array, and kept for the JVM, which runs the tables `Main` is given in
  * turn. `build` reports what each step took. Every graph runs its queries
  * on `spark`.
  */
final class LiteData(val spark: SparkSession, val scale: Double = GraphGen.scaleFromEnv) {
  import LiteData.Build

  private val builds = collection.mutable.Map.empty[String, Build]

  private val makers = collection.immutable.ListMap[String, () => DataGraph](
    "MI" -> (() => GraphGen.miLite(spark, scale)),
    "PA" -> (() => GraphGen.paLite(spark, scale)),
    "PA-L" -> (() => GraphGen.paLiteLabeled(spark, scale)),
    "OK" -> (() => GraphGen.okLite(spark, scale)),
    "FR" -> (() => GraphGen.frLite(spark, scale)),
    "OK-L6" -> (() => GraphGen.okLiteLabeled6(spark, scale)),
    "FR-L6" -> (() => GraphGen.frLiteLabeled6(spark, scale)),
    "OK+K6" -> (() => GraphGen.okLiteWithClique(spark, 6, scale))
  )

  /** Every lite graph's name, in build order. */
  def names: Seq[String] = makers.keys.toSeq

  /** The graph called `name`, built on first use. */
  def build(name: String): Build = synchronized {
    builds.getOrElseUpdate(name, {
      val (g, buildS) = Harness.time(makers(name)())
      val csrS = Harness.time(g.csr)._2
      val labelsS = if (g.labeled) Some(Harness.time(g.labelArray)._2) else None
      Build(name, g, buildS, csrS, labelsS)
    })
  }

  def mi: DataGraph = build("MI").graph
  def pa: DataGraph = build("PA").graph
  def paL: DataGraph = build("PA-L").graph
  def ok: DataGraph = build("OK").graph
  def fr: DataGraph = build("FR").graph
  def okL: DataGraph = build("OK-L6").graph
  def frL: DataGraph = build("FR-L6").graph
  def okClique: DataGraph = build("OK+K6").graph
}

object LiteData {

  /** One lite graph and the seconds its build, its CSR broadcast and its
    * label-array broadcast took.
    */
  final case class Build(name: String, graph: DataGraph, buildS: Double, csrS: Double, labelsS: Option[Double])
}
