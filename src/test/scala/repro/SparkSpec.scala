package repro

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** `f`'s result and the start events of the Spark jobs it ran. A marker
    * job run after `f` bounds the list: listener events arrive in order, so
    * every job `f` started is seen before the marker.
    */
  protected def jobsDuring[T](f: => T): (T, Seq[SparkListenerJobStart]) = {
    val sc = spark.sparkContext
    val started = new ConcurrentLinkedQueue[SparkListenerJobStart]
    val marker = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("repro.marker") != null)) marker.countDown()
        else if (marker.getCount > 0) started.add(e)
    }
    sc.addSparkListener(listener)
    try {
      val out = f
      sc.setLocalProperty("repro.marker", "1")
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty("repro.marker", null)
      assert(marker.await(60, TimeUnit.SECONDS), "the marker job was not seen")
      (out, started.asScala.toSeq)
    } finally sc.removeSparkListener(listener)
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
