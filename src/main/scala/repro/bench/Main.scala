package repro.bench

import org.apache.spark.sql.SparkSession

/** Command-line entry point: prints the paper tables it is given, or
  * (`builds`) the build times of every lite graph, from one JVM over one
  * set of lite graphs, so a PRG cell shared by several tables is measured
  * once. Each table's `Tables.check` failures go to stderr; any failure
  * makes the exit status 1.
  *
  * {{{
  *   sbt "runMain repro.bench.Main table2 fig1 table6"
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
    "table3" -> Tables.table3,
    "table4" -> Tables.table4,
    "table5" -> Tables.table5,
    "table6" -> Tables.table6,
    "fig1" -> Tables.fig1,
    "fig10" -> Tables.fig10
  )

  def main(args: Array[String]): Unit = {
    if (args.isEmpty || !args.forall(tables.contains)) {
      Console.err.println(s"usage: repro.bench.Main <${tables.keys.toSeq.sorted.mkString("|")}>...")
      sys.exit(2)
    }
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(args.mkString(" "))
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val failed =
      try {
        val d = new LiteData(spark)
        args.count { name =>
          val (rendered, rows) = tables(name)(spark, d)
          println(rendered)
          val failures = Tables.check(name, rows)
          failures.foreach(f => Console.err.println(s"[check] $name: $f"))
          failures.nonEmpty
        }
      } finally spark.stop()
    if (failed > 0) sys.exit(1)
  }
}
