package repro.core

import org.apache.spark.{TaskContext, TaskKilledException}
import org.apache.spark.broadcast.Broadcast
import org.roaringbitmap.RoaringBitmap
import scala.reflect.ClassTag
import repro.graph.{Csr, DataGraph}
import repro.plan.ExplorationPlan

/** Peregrine's matching engine (§5.1–5.3, §5.5) over the broadcast
  * degree-ordered CSR of a `DataGraph`: it counts the matches of an
  * exploration plan, or aggregates their MNI domains, without materializing
  * any of them.
  *
  * A query is one job of T = `defaultParallelism` tasks, one per core,
  * submitted with `SparkContext.runJob` and a named task function, so Spark
  * cleans no closure for it. The unit of work is a (root, position-1
  * candidate) pair (§5.2): every task walks the roots from the highest id
  * down (ids are degree ranks), applies position 0's checks and cuts
  * position 1's candidate range as below, and task j binds only the
  * candidates whose running index over those ranges, counted before any
  * check, is ≡ j (mod T). So a hub root's pairs spread over every task, and
  * each task numbers the pairs the same way without sharing state. A
  * single-vertex plan deals its roots the same way. From a bound pair the
  * task binds the rest of `plan.joinOrder` by backtracking:
  *
  *  - a vertex's candidates are the adjacency list of its bound pattern
  *    neighbour of smallest data degree, cut by binary search to the id
  *    range the partial orders allow (§4.1);
  *  - the other bound neighbours are checked by binary search (sorted-list
  *    intersection), anti-edges by the edge's absence (§4.2), and unordered
  *    unconnected pairs by ≠; labels are checked per candidate;
  *  - once every regular vertex is bound, each anti-vertex (§4.3) needs the
  *    common neighbourhood of its anti-neighbours' images, minus the images
  *    of those vertices' pattern neighbours, to be empty.
  *
  * `run` and `domains` share this search and differ only in what a task
  * does with a full match: `run` counts it, `domains` also files its ids
  * into per-task Roaring bitmaps that the driver merges (§5.5). `domains`
  * may also be given an `Admissible` label set, which rejects a candidate
  * at bind time when its label, or its label paired with a bound pattern
  * neighbour's, is not admitted.
  *
  * With `symmetry = false` the order bounds are dropped and every
  * automorphic image is found (PRG-U). `limit` stops each task once it has
  * found that many matches (early termination, §5.3). Tasks check for
  * cancellation every few thousand candidates, so a cancelled job ends.
  */
object PlanExecutor {

  /** `count` matches; `accepted(i)` partial matches that passed every check
    * of join-order position i (before the anti-vertex checks), summed over
    * the tasks.
    */
  final case class Result(count: Long, accepted: Vector[Long])

  def run(g: DataGraph, plan: ExplorationPlan, symmetry: Boolean = true, limit: Long = Long.MaxValue): Result = {
    val perTask = tasks(g, Program(plan, symmetry), limit, collect = false, null)(s => s.count +: s.accepted)
    Result(perTask.map(_.head).sum, plan.joinOrder.indices.map(i => perTask.map(_(i + 1)).sum).toVector)
  }

  /** The labels a search admits: a candidate vertex is bound only if its
    * label is in `labels` and, when `pairs` is given, its label and that of
    * each bound pattern neighbour form a pair in `pairs` (unordered).
    * `Csr.NoLabel` is never admitted. Both sets are kept as small sorted
    * arrays and looked up by binary search.
    */
  final class Admissible(labels: Iterable[Int], pairs: Option[Iterable[(Int, Int)]]) extends Serializable {
    private val ls = labels.filter(_ != Csr.NoLabel).toArray.distinct.sorted
    private val ps = pairs.map(_.map { case (a, b) => Admissible.pack(a, b) }.toArray.distinct.sorted).orNull

    def label(l: Int): Boolean = java.util.Arrays.binarySearch(ls, l) >= 0

    def pair(a: Int, b: Int): Boolean = ps == null || java.util.Arrays.binarySearch(ps, Admissible.pack(a, b)) >= 0
  }

  object Admissible {
    /** The unordered pair {a, b} as one `Long`. */
    private def pack(a: Int, b: Int): Long = (math.min(a, b).toLong << 32) | (math.max(a, b) & 0xffffffffL)
  }

  /** MNI domains of the matches of `plan`, by label sequence: for each
    * sequence of labels the matches carry over `plan.pattern.regularVertices`
    * (a labeled vertex's from the pattern, a wildcard's from the graph), one
    * bitmap per regular vertex of the data vertices matched to it. On a
    * labeled graph a match with an unlabeled data vertex at a wildcard is
    * skipped; on an unlabeled graph wildcards keep `Csr.NoLabel`.
    *
    * With `admissible`, the search binds no vertex whose label it does not
    * admit, nor one whose label pairs with a bound pattern neighbour's into
    * a pair it does not admit. A label sequence's matches either all pass
    * those checks or all fail them, so the result is exactly the unpruned
    * map restricted to the sequences whose labels, and whose edges' label
    * pairs, are all admitted, with the same bitmaps; the rest are never
    * enumerated, filed or shipped. It needs a labeled graph.
    */
  def domains(
      g: DataGraph, plan: ExplorationPlan, symmetry: Boolean, admissible: Option[Admissible]
  ): Map[Seq[Int], Array[RoaringBitmap]] = {
    require(admissible.isEmpty || g.labeled, "label admissibility requires a labeled graph")
    val perTask =
      tasks(g, Program(plan, symmetry), Long.MaxValue, collect = true, admissible.orNull)(_.domains.entries)
    val merged = collection.mutable.Map.empty[Seq[Int], Array[RoaringBitmap]]
    for ((ls, doms) <- perTask.flatten) merged.get(ls.toSeq) match {
      case Some(acc) => acc.indices.foreach(j => acc(j).or(doms(j)))
      case None      => merged(ls.toSeq) = doms
    }
    merged.toMap
  }

  /** Runs the search in every task and returns `out` of each task's search;
    * with `collect`, searches file their matches' domains, reading every
    * vertex's label when the graph has labels. `admissible` (null for none)
    * prunes them as in `domains`.
    */
  private def tasks[T: ClassTag](g: DataGraph, prog: Program, limit: Long, collect: Boolean, admissible: Admissible)(
      out: Search => T
  ): Array[T] = {
    val labeled = prog.label.exists(_ != Csr.NoLabel)
    require(!labeled || g.labeled, "labeled pattern requires a labeled graph")
    val csr = g.csr
    val labels = if (labeled || collect) g.labelArray else None
    val sc = g.spark.sparkContext
    val n = sc.defaultParallelism
    sc.runJob(sc.parallelize(0 until n, n), new Task(prog, csr, labels, limit, collect, admissible, n, out), 0 until n)
  }

  /** Task `ctx.partitionId` of `tasks`: runs its search and returns `out` of
    * it. A named class rather than a lambda, because Spark's closure cleaner
    * reads and parses the class file of every lambda it cleans and leaves
    * any other function untouched.
    */
  private final class Task[T](
      prog: Program, csr: Broadcast[Csr], labels: Option[Broadcast[Array[Int]]], limit: Long, collect: Boolean,
      admissible: Admissible, tasks: Int, out: Search => T
  ) extends ((TaskContext, Iterator[Int]) => T) with Serializable {
    def apply(ctx: TaskContext, ignored: Iterator[Int]): T = {
      val search =
        new Search(prog, csr.value, labels.map(_.value).orNull, limit, collect, admissible, ctx.partitionId, tasks)
      search.extend(0)
      out(search)
    }
  }

  /** The plan as arrays over join-order positions; each constraint sits at
    * the later of the two positions it relates.
    */
  private final case class Program(
      label: Array[Int],            // Csr.NoLabel for a wildcard
      nbrs: Array[Array[Int]],      // earlier positions adjacent in the pattern
      anti: Array[Array[Int]],      // earlier positions anti-adjacent
      above: Array[Array[Int]],     // earlier positions whose image must be smaller
      below: Array[Array[Int]],     // earlier positions whose image must be larger
      distinct: Array[Array[Int]],  // earlier positions whose image must only differ
      avNbrs: Array[Array[Int]],    // per anti-vertex: its anti-neighbours' positions
      avExcused: Array[Array[Int]], // per anti-vertex: positions whose images are excused
      regular: Array[Int]           // position of each of `regularVertices`
  )

  private object Program {
    def apply(plan: ExplorationPlan, symmetry: Boolean): Program = {
      val p = plan.pattern
      val order = plan.joinOrder
      val pos = order.zipWithIndex.toMap
      def lt(v: Int, w: Int) = symmetry && plan.orderClosure.contains((v, w))
      def earlier(i: Int)(rel: (Int, Int) => Boolean): Array[Int] =
        (0 until i).filter(j => rel(order(i), order(j))).toArray
      val nbrs = order.indices.map(i => earlier(i)(p.areConnected)).toArray
      for (i <- 1 until order.size if nbrs(i).isEmpty)
        throw new IllegalStateException(s"join order not connectivity-respecting at ${order(i)}")
      Program(
        label = order.map(v => p.getLabel(v).getOrElse(Csr.NoLabel)).toArray,
        nbrs = nbrs,
        anti = order.indices.map(i => earlier(i)(p.areAntiAdjacent)).toArray,
        above = order.indices.map(i => earlier(i)((v, w) => lt(w, v))).toArray,
        below = order.indices.map(i => earlier(i)(lt)).toArray,
        distinct = order.indices.map(i => earlier(i)((v, w) => !p.areConnected(v, w) && !lt(v, w) && !lt(w, v))).toArray,
        avNbrs = p.antiVertices.map(av => p.antiNeighbors(av).toArray.sorted.map(pos)).toArray,
        avExcused = p.antiVertices.map { av =>
          p.antiNeighbors(av).flatMap(p.getNeighbors).toArray.sorted.map(pos)
        }.toArray,
        regular = p.regularVertices.map(pos).toArray
      )
    }
  }

  /** The backtracking search of task `task` out of `tasks`, run by
    * `extend(0)`; `labels` is null when it reads none. With `collect` it
    * files every match into `domains`; `admissible` is null for none.
    */
  private final class Search(
      prog: Program, csr: Csr, labels: Array[Int], limit: Long, collect: Boolean, admissible: Admissible,
      task: Int, tasks: Int
  ) {
    private val k = prog.nbrs.length
    private val m = new Array[Int](k)
    private val ctx = TaskContext.get()
    private var work = 0
    /** The position whose candidates are dealt; every task walks the earlier ones. */
    private val dealt = math.min(1, k - 1)
    /** Range positions of `dealt` passed so far, counted before any check. */
    private var units = 0L
    val accepted = new Array[Long](k)
    var count = 0L
    val domains: Domains = if (collect) new Domains(prog, labels) else null

    private def bind(i: Int, c: Int): Unit = {
      m(i) = c
      // Every task binds the candidates before `dealt`; task c mod `tasks` counts them.
      if (i >= dealt || c % tasks == task) accepted(i) += 1
      if (i + 1 < k) extend(i + 1)
      else if (antiVerticesHold) {
        count += 1
        if (domains != null) domains.add(m)
      }
    }

    /** Binds position `i`'s candidates in turn: the roots from the highest
      * id down at position 0, else the list of `i`'s bound neighbour of
      * smallest degree, cut to the id range the partial orders allow. At
      * position `dealt` only every `tasks`-th range position, from the one
      * whose running index is ≡ `task`.
      */
    def extend(i: Int): Unit = {
      val anchor = if (i == 0) -1 else smallest(prog.nbrs(i))
      var lo = if (i == 0) 0 else csr.offsets(anchor)
      var hi = if (i == 0) csr.numVertices else csr.offsets(anchor + 1)
      val above = prog.above(i)
      if (above.nonEmpty) lo = csr.lowerBound(lo, hi, maxImage(above) + 1)
      val below = prog.below(i)
      if (below.nonEmpty) hi = csr.lowerBound(lo, hi, minImage(below))
      var step = 1
      if (i == dealt) {
        val first = lo + Math.floorMod(task - units, tasks)
        units += hi - lo
        lo = first
        step = tasks
      }
      while (lo < hi && count < limit) {
        val c = if (i == 0) csr.numVertices - 1 - lo else csr.nbrs(lo)
        tick()
        if (accepts(i, c, anchor)) bind(i, c)
        lo += step
      }
    }

    /** Every check of position `i` on candidate `c`, except adjacency to `anchor`. */
    private def accepts(i: Int, c: Int, anchor: Int): Boolean = {
      if (labels != null && !labelsHold(i, c)) return false
      val distinct = prog.distinct(i)
      var j = 0
      while (j < distinct.length) { if (m(distinct(j)) == c) return false; j += 1 }
      val nbrs = prog.nbrs(i)
      j = 0
      while (j < nbrs.length) {
        val w = m(nbrs(j))
        if (w != anchor && !csr.hasEdge(w, c)) return false
        j += 1
      }
      val anti = prog.anti(i)
      j = 0
      while (j < anti.length) { if (csr.hasEdge(m(anti(j)), c)) return false; j += 1 }
      true
    }

    /** Position `i`'s label checks on `c`: the pattern's label, if any, and
      * whether `admissible` (if given) admits `c`'s label, alone and paired
      * with each bound pattern neighbour's. A search that reads no labels
      * has none of these checks.
      */
    private def labelsHold(i: Int, c: Int): Boolean = {
      val l = labels(c)
      if (prog.label(i) != Csr.NoLabel && l != prog.label(i)) return false
      if (admissible == null) return true
      if (!admissible.label(l)) return false
      val nbrs = prog.nbrs(i)
      var j = 0
      while (j < nbrs.length) { if (!admissible.pair(l, labels(m(nbrs(j))))) return false; j += 1 }
      true
    }

    private def antiVerticesHold: Boolean = {
      var a = 0
      while (a < prog.avNbrs.length) {
        if (commonNeighbour(prog.avNbrs(a), prog.avExcused(a))) return false
        a += 1
      }
      true
    }

    /** Whether the images of `ns` share a neighbour that is not the image of
      * an `excused` position.
      */
    private def commonNeighbour(ns: Array[Int], excused: Array[Int]): Boolean = {
      val anchor = smallest(ns)
      var q = csr.offsets(anchor)
      val end = csr.offsets(anchor + 1)
      while (q < end) {
        val w = csr.nbrs(q)
        tick()
        var ok = true
        var j = 0
        while (ok && j < excused.length) { ok = m(excused(j)) != w; j += 1 }
        j = 0
        while (ok && j < ns.length) {
          val x = m(ns(j))
          ok = x == anchor || csr.hasEdge(x, w)
          j += 1
        }
        if (ok) return true
        q += 1
      }
      false
    }

    /** The image of smallest degree among positions `ps`. */
    private def smallest(ps: Array[Int]): Int = {
      var best = m(ps(0))
      var j = 1
      while (j < ps.length) {
        val v = m(ps(j))
        if (csr.degree(v) < csr.degree(best)) best = v
        j += 1
      }
      best
    }

    private def maxImage(ps: Array[Int]): Int = {
      var x = Int.MinValue
      var j = 0
      while (j < ps.length) { x = math.max(x, m(ps(j))); j += 1 }
      x
    }

    private def minImage(ps: Array[Int]): Int = {
      var x = Int.MaxValue
      var j = 0
      while (j < ps.length) { x = math.min(x, m(ps(j))); j += 1 }
      x
    }

    private def tick(): Unit = {
      work += 1
      if ((work & 4095) == 0 && ctx.isInterrupted()) throw new TaskKilledException("cancelled")
    }
  }

  /** One task's MNI domains: per label sequence over the regular vertices,
    * one bitmap of matched ids per regular vertex.
    */
  private final class Domains(prog: Program, labels: Array[Int]) {
    private val byLabels = new java.util.HashMap[LabelSeq, Array[RoaringBitmap]]
    private val probe = new LabelSeq(new Array[Int](prog.regular.length))

    /** Files match `m` (images by join-order position). */
    def add(m: Array[Int]): Unit = {
      val ls = probe.ls
      var j = 0
      while (j < ls.length) {
        val i = prog.regular(j)
        ls(j) = prog.label(i)
        if (ls(j) == Csr.NoLabel && labels != null) {
          ls(j) = labels(m(i))
          if (ls(j) == Csr.NoLabel) return
        }
        j += 1
      }
      var doms = byLabels.get(probe)
      if (doms == null) {
        doms = Array.fill(ls.length)(new RoaringBitmap)
        byLabels.put(new LabelSeq(ls.clone), doms)
      }
      j = 0
      while (j < ls.length) { doms(j).add(m(prog.regular(j))); j += 1 }
    }

    def entries: Array[(Array[Int], Array[RoaringBitmap])] = {
      val out = Array.newBuilder[(Array[Int], Array[RoaringBitmap])]
      byLabels.forEach((key, doms) => out += ((key.ls, doms)))
      out.result()
    }
  }

  /** A label sequence as a hash key, so a task can look one up by a reused array. */
  private final class LabelSeq(val ls: Array[Int]) {
    override def hashCode: Int = java.util.Arrays.hashCode(ls)
    override def equals(o: Any): Boolean = o match {
      case that: LabelSeq => java.util.Arrays.equals(ls, that.ls)
      case _              => false
    }
  }
}
