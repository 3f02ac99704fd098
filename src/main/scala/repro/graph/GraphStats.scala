package repro.graph

/** Dataset statistics for the Table 2 reproduction: |V|, |E|, |L|, max and
  * average degree. Read from the substrate's CSR and label array, so they
  * run no Spark job.
  */
object GraphStats {

  final case class Stats(numVertices: Long, numEdges: Long, numLabels: Option[Long], maxDegree: Long, avgDegree: Double)

  def describe(g: DataGraph): Stats = {
    val csr = g.csr.value
    val maxDegree = (0 until csr.numVertices).iterator.map(csr.degree).maxOption.getOrElse(0)
    val avgDegree = if (csr.numVertices == 0) 0.0 else csr.offsets.last.toDouble / csr.numVertices
    val nLabels = g.labelArray.map(_.value.iterator.filter(_ != Csr.NoLabel).distinct.size.toLong)
    Stats(g.numVertices, g.numEdges, nLabels, maxDegree, avgDegree)
  }
}
