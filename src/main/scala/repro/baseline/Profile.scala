package repro.baseline

/** Counters matching the Fig 1b/1c profile columns: embeddings explored,
  * canonicality checks and isomorphism computations of one baseline run.
  */
final case class Profile(explored: Long, canonicality: Long, isomorphism: Long)
