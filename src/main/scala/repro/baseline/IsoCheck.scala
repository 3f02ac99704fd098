package repro.baseline

import repro.graph.Csr
import repro.pattern.{CanonicalForm, Pattern, PatternCodec}

/** The per-match computations that pattern-UNaware systems pay for and
  * Peregrine's plan-guided engine avoids entirely (§2.2.1):
  *
  *  - canonicality checks — is this embedding the unique representative of
  *    its automorphism class / generation order?
  *  - isomorphism checks — what pattern does this subgraph instantiate, or
  *    how many embeddings of a target pattern does it contain?
  *
  * All helpers here run per explored subgraph inside baseline tasks, which
  * is exactly how the profiled systems of Fig 1 spend their time. They read
  * the graph's broadcast `Csr` (vertex ids are its dense ids) and its label
  * array, where a vertex with no label reads as label -1.
  */
object IsoCheck {

  /** Label of `v` in `labels` (a `DataGraph.labelArray`, or null for an
    * unlabeled graph); -1 where there is none.
    */
  private def label(labels: Array[Int], v: Long): Int =
    if (labels == null || labels(v.toInt) == Csr.NoLabel) -1 else labels(v.toInt)

  private def connected(csr: Csr, u: Long, v: Long): Boolean = csr.hasEdge(u.toInt, v.toInt)

  /** Greedy-minimal generation order of a connected vertex set: start at
    * the smallest vertex, repeatedly append the smallest vertex adjacent to
    * the prefix (within the set). Every connected set has exactly one such
    * order, so "sequence == greedy order" is a canonicality predicate for
    * BFS-style embedding growth (the Arabesque model).
    */
  def canonicalSeq(vs: Seq[Long], csr: Csr): Seq[Long] = {
    val set = vs.toSet
    val out = collection.mutable.ArrayBuffer(vs.min)
    val in = collection.mutable.Set(vs.min)
    while (out.size < vs.size) {
      val next = set.iterator
        .filter(v => !in(v) && out.exists(u => connected(csr, u, v)))
        .minOption
        .getOrElse(throw new IllegalArgumentException(s"vertex set not connected: $vs"))
      out += next
      in += next
    }
    out.toSeq
  }

  /** Canonicality check for a generation sequence (counted by profiling). */
  def isCanonicalSeq(vs: Seq[Long], csr: Csr): Boolean =
    vs == canonicalSeq(vs, csr)

  /** The unlabeled pattern induced by a vertex set: position i+1 stands for
    * vs(i).
    */
  def inducedPattern(vs: Seq[Long], csr: Csr): Pattern = {
    val k = vs.size
    val edges = for {
      i <- 0 until k; j <- (i + 1) until k
      if connected(csr, vs(i), vs(j))
    } yield (i + 1, j + 1)
    Pattern(Vector.range(1, k + 1), edges.toSet, Set.empty, Map.empty)
  }

  /** Labeled pattern formed by an explicit edge list over data vertices
    * (edge-induced subgraph, used by FSM baselines): positions follow sorted
    * vertex order.
    */
  def edgePattern(es: Seq[(Long, Long)], labels: Array[Int]): (Pattern, Seq[Long]) = {
    val vs = es.flatMap { case (u, v) => Seq(u, v) }.distinct.sorted
    val pos = vs.zipWithIndex.map { case (v, i) => v -> (i + 1) }.toMap
    val base = Pattern(
      Vector.range(1, vs.size + 1),
      es.map { case (u, v) => Pattern.norm(pos(u), pos(v)) }.toSet,
      Set.empty,
      Map.empty
    )
    val p = vs.zipWithIndex.foldLeft(base) { case (acc, (v, i)) => acc.addLabel(i + 1, label(labels, v)) }
    (p, vs)
  }

  /** Canonical pattern key + canonically-ordered vertex assignment for a
    * subgraph. The brute-force canonicalization is THE isomorphism
    * computation the profiled systems perform per match.
    */
  def patternKeyAndAssignment(p: Pattern, vs: Seq[Long]): (String, Seq[Long]) = {
    val (canon, perm) = CanonicalForm.canonicalize(p)
    // perm: original position (1-based) → canonical position (1-based)
    val out = Array.ofDim[Long](vs.size)
    for ((v, i) <- vs.zipWithIndex) out(perm(i + 1) - 1) = v
    (PatternCodec.encode(canon), out.toSeq)
  }

  /** Number of spanning embeddings of `target` into the subgraph induced by
    * `vs` (extra data edges permitted — edge-induced semantics): brute force
    * over assignments, the pattern-matching iso check of Table 4 baselines.
    */
  def countSpanningEmbeddings(target: Pattern, vs: Seq[Long], csr: Csr, labels: Array[Int]): Long = {
    val reg = target.regularVertices
    if (reg.size != vs.size) return 0L
    vs.permutations.count { perm =>
      val m = reg.zip(perm).toMap
      target.edges.forall { case (u, v) => connected(csr, m(u), m(v)) } &&
      reg.forall(u => target.getLabel(u).forall(l => labels != null && labels(m(u).toInt) == l))
    }
  }
}
