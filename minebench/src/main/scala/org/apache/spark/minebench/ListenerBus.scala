package org.apache.spark.minebench

import org.apache.spark.SparkContext

/** Access to the listener bus, which Spark keeps package-private. Listener
  * events arrive asynchronously; draining the bus before reading what a
  * listener collected makes the read complete.
  */
object ListenerBus {
  def drain(sc: SparkContext, timeoutMs: Long = 30000): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}
