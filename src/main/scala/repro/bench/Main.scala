package repro.bench

import org.apache.spark.sql.SparkSession

/** Command-line entry point: prints one paper table, the same one its bench
  * suite prints, or (`builds`) the build times of every lite graph.
  *
  * {{{
  *   sbt "runMain repro.bench.Main table3"
  *   spark-submit --class repro.bench.Main target/scala-2.13/repro_2.13-*.jar table3
  * }}}
  *
  * The session matches the test suites: `local[*]`, 64 shuffle partitions
  * and broadcast joins off (`SPARK_MASTER` and `SPARK_SHUFFLE_PARTITIONS`
  * override the first two).
  */
object Main {

  private val tables: Map[String, (SparkSession, LiteData) => (String, Seq[Tables.Row])] = Map(
    "builds" -> ((_, d) => Tables.builds(d, d.names)),
    "table2" -> Tables.table2,
    "table3" -> (Tables.table3(_, _)),
    "table4" -> (Tables.table4(_, _)),
    "table5" -> (Tables.table5(_, _)),
    "table6" -> (Tables.table6(_, _)),
    "fig1" -> (Tables.fig1(_, _)),
    "fig10" -> (Tables.fig10(_, _))
  )

  def main(args: Array[String]): Unit = {
    val name = args.headOption.filter(tables.contains).getOrElse {
      Console.err.println(s"usage: repro.bench.Main <${tables.keys.toSeq.sorted.mkString("|")}>")
      sys.exit(2)
    }
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(tables(name)(spark, new LiteData(spark))._1)
    finally spark.stop()
  }
}
