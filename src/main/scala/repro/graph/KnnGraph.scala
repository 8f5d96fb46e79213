package repro.graph

import repro.core.{Linalg, Rng}

/** k-nearest-neighbor graph over a set of vectors.
  *
  * `neighbors(i)` are the k nearest indices of node i (ascending distance),
  * `weights(i)(j)` the Gaussian edge weight exp(−d²/2σ²) to `neighbors(i)(j)`
  * — the similarity kernel of Zhu & Ghahramani used by the paper (§4.2).
  */
final case class KnnGraph(
    k: Int,
    sigma: Double,
    neighbors: Array[Array[Int]],
    weights: Array[Array[Double]],
) extends Serializable {
  require(neighbors.length == weights.length, "ragged graph")
  def n: Int = neighbors.length

  /** Symmetrized sparse adjacency as (i, j, w) triples with i < j.
    *
    * W_sym = (W + W^T)/2. Each unordered pair is emitted exactly once by
    * merging the two possible directed edges in place (O(k) membership
    * scans), with no global dedup structure — million-edge graphs stream in
    * linear time and deterministic order.
    */
  def symEdges: Iterator[(Int, Int, Double)] = {
    def edgeIndex(from: Int, to: Int): Int = {
      val ns = neighbors(from)
      var q = 0
      while (q < ns.length) {
        if (ns(q) == to) return q
        q += 1
      }
      -1
    }
    (0 until n).iterator.flatMap { i =>
      neighbors(i).iterator.zipWithIndex.flatMap { case (o, j) =>
        if (i < o) {
          // Merge the reverse edge here; the o-row skips it below.
          val rev = edgeIndex(o, i)
          val revW = if (rev >= 0) weights(o)(rev) else 0.0
          Some((i, o, (weights(i)(j) + revW) / 2.0))
        } else if (edgeIndex(o, i) < 0) {
          // Reverse direction absent: this is the only contribution.
          Some((o, i, weights(i)(j) / 2.0))
        } else None // already emitted from the o-row
      }
    }
  }
}

/** kNN graph construction by NN-descent (Dong et al. 2011), the paper's
  * scalable construction (§4.2).
  */
object KnnGraph {

  /** Seed of NN-descent's random initial neighbor lists. */
  private val NnDescentSeed = 5L

  /** NN-descent stops after this many sweeps, or earlier once a sweep
    * updates fewer than `NnDescentConvergedFrac · n · k` neighbor entries.
    */
  private val NnDescentMaxIters = 12
  private val NnDescentConvergedFrac = 0.001

  def gaussianWeight(sqDist: Double, sigma: Double): Double =
    math.exp(-sqDist / (2.0 * sigma * sigma))

  /** NN-descent: iteratively refine random neighbor lists by local joins
    * (each node tries its neighbors' neighbors). Converges to a
    * high-recall approximate kNN graph in a handful of sweeps.
    *
    * The distance computations (the dominant cost) run in parallel over
    * fixed node blocks while insertions are applied sequentially in node
    * order, so the result is deterministic in (vecs, k) regardless of
    * thread scheduling — required for reproducible benchmarks over
    * million-vector multiscale databases.
    */
  def nnDescent(vecs: IndexedSeq[Array[Float]], k: Int, sigma: Double): KnnGraph = {
    val n = vecs.length
    require(k > 0 && k < n, s"need 0 < k < n, got k=$k n=$n")
    val vecArr: Array[Array[Float]] = vecs.toArray // flat ref copy for hot loops

    // Neighbor lists with distances; worst entry tracked by linear scan (k small).
    val nb = new Array[Array[Int]](n)
    val nd = new Array[Array[Double]](n)
    java.util.stream.IntStream.range(0, n).parallel().forEach { i =>
      val picks = scala.collection.mutable.LinkedHashSet.empty[Int]
      var t = 0
      while (picks.size < k) {
        val c = Rng.int(Rng.key(NnDescentSeed, i, t), n)
        if (c != i) picks += c
        t += 1
      }
      nb(i) = picks.toArray
      nd(i) = nb(i).map(j => Linalg.sqDist(vecArr(i), vecArr(j)))
    }
    var i = 0

    def tryInsert(i: Int, j: Int, d: Double): Boolean = {
      if (i == j) return false
      val dists = nd(i); val ids = nb(i)
      var worst = 0; var w = 1
      while (w < k) { if (dists(w) > dists(worst)) worst = w; w += 1 }
      if (d >= dists(worst)) return false
      var q = 0
      while (q < k) { if (ids(q) == j) return false; q += 1 }
      ids(worst) = j; dists(worst) = d
      true
    }

    val BlockSize = 4096
    var iter = 0
    var updates = Long.MaxValue
    while (iter < NnDescentMaxIters && updates > (NnDescentConvergedFrac * n * k).toLong) {
      updates = 0
      // Reverse-neighbor lists (CSR) for the general-join step.
      val revOff = new Array[Int](n + 1)
      i = 0
      while (i < n) { nb(i).foreach(j => revOff(j + 1) += 1); i += 1 }
      i = 0
      while (i < n) { revOff(i + 1) += revOff(i); i += 1 }
      val revIdx = new Array[Int](revOff(n))
      val cursor = revOff.clone()
      i = 0
      while (i < n) {
        nb(i).foreach { j => revIdx(cursor(j)) = i; cursor(j) += 1 }
        i += 1
      }

      // Frozen per-node distance bars for proposal prefiltering: bars only
      // shrink during the sweep, so "d < frozen bar" is a conservative
      // superset of what the sequential apply phase will accept — the result
      // stays identical while the sequential phase does ~10x less work.
      val bars = new Array[Double](n)
      i = 0
      while (i < n) {
        var worst = 0.0; var w = 0
        val dists = nd(i)
        while (w < k) { if (dists(w) > worst) worst = dists(w); w += 1 }
        bars(i) = worst
        i += 1
      }

      var blockStart = 0
      while (blockStart < n) {
        val blockEnd = math.min(n, blockStart + BlockSize)
        // Parallel phase: compute candidate (v, d) proposals per node against
        // the frozen start-of-block neighbor state.
        val proposalsV = new Array[Array[Int]](blockEnd - blockStart)
        val proposalsD = new Array[Array[Double]](blockEnd - blockStart)
        java.util.stream.IntStream.range(blockStart, blockEnd).parallel().forEach { ii =>
          val seen = new scala.collection.mutable.HashSet[Int]
          val vsB = Array.newBuilder[Int]
          val dsB = Array.newBuilder[Double]
          val myNb = nb(ii)
          val barI = bars(ii)
          def propose(v: Int): Unit =
            if (v != ii && seen.add(v)) {
              val d = Linalg.sqDist(vecArr(ii), vecArr(v))
              if (d < barI || d < bars(v)) { vsB += v; dsB += d }
            }
          var a = 0
          val candCount = myNb.length + (revOff(ii + 1) - revOff(ii))
          while (a < candCount) {
            val u = if (a < myNb.length) myNb(a) else revIdx(revOff(ii) + (a - myNb.length))
            val un = nb(u)
            var b = 0
            while (b < un.length) { propose(un(b)); b += 1 }
            // The candidate u itself is also a join partner.
            propose(u)
            a += 1
          }
          proposalsV(ii - blockStart) = vsB.result()
          proposalsD(ii - blockStart) = dsB.result()
        }
        // Sequential phase: apply proposals in node order (deterministic).
        var ii = blockStart
        while (ii < blockEnd) {
          val vs = proposalsV(ii - blockStart)
          val ds = proposalsD(ii - blockStart)
          var p = 0
          while (p < vs.length) {
            if (tryInsert(ii, vs(p), ds(p))) updates += 1
            if (tryInsert(vs(p), ii, ds(p))) updates += 1
            p += 1
          }
          ii += 1
        }
        blockStart = blockEnd
      }
      iter += 1
    }

    // Sort each list ascending by distance and attach Gaussian weights.
    val outNb = new Array[Array[Int]](n)
    val outWt = new Array[Array[Double]](n)
    i = 0
    while (i < n) {
      val order = nd(i).zipWithIndex.sortBy(_._1).map(_._2)
      outNb(i) = order.map(nb(i))
      outWt(i) = order.map(o => gaussianWeight(nd(i)(o), sigma))
      i += 1
    }
    KnnGraph(k, sigma, outNb, outWt)
  }
}
