package repro.graph

/** Label propagation (Zhu & Ghahramani 2002) over a kNN graph.
  *
  * Iterates f ← D⁻¹ W f with labeled nodes clamped to their labels, starting
  * unlabeled nodes at 0. This is the conceptual starting point of the
  * paper's DB alignment (§4.2) and the "prop." latency column of Table 6 —
  * the point being that every feedback round must sweep the whole graph,
  * which is what the M_D approximation avoids.
  */
object LabelPropagation {

  /** Sweep cap and convergence tolerance: the one setting Table 6's "prop."
    * cell runs.
    */
  private val MaxIters = 200
  private val Tol = 1e-5

  /** Reusable propagator: the symmetrized adjacency is built once (that is
    * preprocessing); `propagate` is the per-feedback-round cost.
    */
  final class Propagator(graph: KnnGraph) extends Serializable {
    val n: Int = graph.n
    // CSR layout of the symmetrized adjacency; two passes over the edge
    // stream avoid per-node buffers (million-edge graphs).
    private val (offsets, nbrIdx, nbrWt) = {
      val off = new Array[Int](n + 1)
      graph.symEdges.foreach { case (a, b, _) => off(a + 1) += 1; off(b + 1) += 1 }
      var i = 0
      while (i < n) { off(i + 1) += off(i); i += 1 }
      val idx = new Array[Int](off(n))
      val wt = new Array[Double](off(n))
      val cursor = off.clone()
      graph.symEdges.foreach { case (a, b, w) =>
        idx(cursor(a)) = b; wt(cursor(a)) = w; cursor(a) += 1
        idx(cursor(b)) = a; wt(cursor(b)) = w; cursor(b) += 1
      }
      (off, idx, wt)
    }

    /** One full propagation to convergence, unlabeled nodes starting at 0. */
    def propagate(labels: Map[Int, Double]): Array[Double] = {
      labels.foreach { case (i, y) =>
        require(i >= 0 && i < n, s"labeled node $i out of range")
        require(y == 0.0 || y == 1.0, s"labels must be 0/1, got $y")
      }
      val f = new Array[Double](n)
      labels.foreach { case (i, y) => f(i) = y }
      val clamped = new Array[Boolean](n)
      labels.keysIterator.foreach(clamped(_) = true)

      var iter = 0
      var delta = Double.MaxValue
      while (iter < MaxIters && delta > Tol) {
        delta = 0.0
        var i = 0
        while (i < n) {
          if (!clamped(i)) {
            var num = 0.0; var den = 0.0
            var e = offsets(i)
            while (e < offsets(i + 1)) {
              num += nbrWt(e) * f(nbrIdx(e)); den += nbrWt(e)
              e += 1
            }
            if (den > 0) {
              val nf = num / den
              val d = math.abs(nf - f(i))
              if (d > delta) delta = d
              f(i) = nf
            }
          }
          i += 1
        }
        iter += 1
      }
      f
    }
  }
}
