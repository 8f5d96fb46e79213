package repro.baseline

import repro.graph.KnnGraph

/** Efficient Nonmyopic Search (Jiang et al. 2017) — the paper's
  * state-of-the-art active-search baseline (§5.4), with the paper's two
  * modifications: per-node CLIP prior scores γ_i, and deferring to zero-shot
  * CLIP until a first positive is found (handled by the search session).
  *
  * Model: a kNN-classifier posterior with a pseudo-count prior,
  *
  *   p_i = (w₀ γ_i + Σ_{j ∈ kNN(i), labeled} y_j) / (w₀ + #labeled neighbors)
  *
  * Policy: pick argmax over candidates x of the expected utility
  *
  *   U(x) = p_x · (1 + S(h−1 | y_x=1)) + (1 − p_x) · S(h−1 | y_x=0)
  *
  * where S(h−1 | ·) is the sum of the top h−1 posterior probabilities over
  * the remaining unlabeled nodes after conditioning on x's label — the ENS
  * approximation of the optimal h-step lookahead. With horizon h=1 this
  * degrades to the greedy kNN model. The lookahead sums are what make ENS
  * sensitive to probability calibration (Table 4): with inflated raw γ_i
  * the S terms are dominated by prior mass and grow with h, drowning the
  * evidence from labels.
  *
  * Candidate pruning: only the top `MaxCandidates` nodes by posterior are
  * scored (ENS itself relies on bound-based pruning for tractability).
  */
final class Ens(graph: KnnGraph, prior: Array[Double]) {
  import Ens.{MaxCandidates, PriorWeight}
  require(prior.length == graph.n, "prior length must match graph size")
  require(prior.forall(p => p >= 0.0 && p <= 1.0), "priors must be probabilities")

  private val n = graph.n
  private val revNeighbors: Array[Array[Int]] = {
    val bufs = Array.fill(n)(scala.collection.mutable.ArrayBuffer.empty[Int])
    var i = 0
    while (i < n) {
      graph.neighbors(i).foreach(j => bufs(j) += i)
      i += 1
    }
    bufs.map(_.toArray)
  }

  /** Posterior of node i given observed labels. */
  def posterior(i: Int, labeled: Map[Int, Boolean]): Double = {
    var pos = 0.0; var cnt = 0.0
    val ns = graph.neighbors(i)
    var j = 0
    while (j < ns.length) {
      labeled.get(ns(j)).foreach { y => cnt += 1; if (y) pos += 1 }
      j += 1
    }
    (PriorWeight * prior(i) + pos) / (PriorWeight + cnt)
  }

  /** Posterior of i if we additionally observed (x → y). */
  private def posteriorWith(i: Int, labeled: Map[Int, Boolean], x: Int, y: Boolean): Double = {
    var pos = 0.0; var cnt = 0.0
    val ns = graph.neighbors(i)
    var j = 0
    while (j < ns.length) {
      val nj = ns(j)
      if (nj == x) { cnt += 1; if (y) pos += 1 }
      else labeled.get(nj).foreach { yy => cnt += 1; if (yy) pos += 1 }
      j += 1
    }
    (PriorWeight * prior(i) + pos) / (PriorWeight + cnt)
  }

  /** Select the next node to show given labels so far and the remaining
    * horizon (number of picks left including this one).
    */
  def selectNext(labeled: Map[Int, Boolean], horizon: Int): Int = {
    require(horizon >= 1, "horizon must be at least 1")
    require(labeled.size < n, "all nodes are labeled")
    val unlabeled = (0 until n).filterNot(labeled.contains).toArray
    val p = unlabeled.map(posterior(_, labeled))
    val order = unlabeled.indices.sortBy(i => (-p(i), unlabeled(i)))

    if (horizon == 1) return unlabeled(order.head) // greedy kNN model

    val future = horizon - 1
    // Descending posterior values of all unlabeled nodes; the conditioned
    // top-sum is rebuilt exactly from a prefix plus the affected nodes.
    val sortedVals = order.map(p(_)).toArray
    val posOf = unlabeled.zipWithIndex.toMap // node -> index into p

    val nCand = math.min(MaxCandidates, unlabeled.length)
    var best = -1
    var bestU = Double.NegativeInfinity
    var c = 0
    while (c < nCand) {
      val xi = order(c)
      val x = unlabeled(xi)
      val affected = revNeighbors(x).filter(j => j != x && !labeled.contains(j))
      val u = expectedUtility(x, p(xi), labeled, affected, sortedVals, p, posOf, future)
      if (u > bestU || (u == bestU && (best == -1 || x < best))) { bestU = u; best = x }
      c += 1
    }
    best
  }

  private def expectedUtility(
      x: Int,
      px: Double,
      labeled: Map[Int, Boolean],
      affected: Array[Int],
      sortedVals: Array[Double],
      p: Array[Double],
      posOf: Map[Int, Int],
      future: Int,
  ): Double = {
    def topSumGiven(y: Boolean): Double = {
      // Exact top-`future` sum over unlabeled \ {x} with affected nodes
      // updated: a prefix of the global sort bounds every unchanged value
      // that could make the cut; affected/x values are patched explicitly.
      val oldX = p(posOf(x))
      val oldAffected = affected.map(j => p(posOf(j)))
      val newAffected = affected.map(j => posteriorWith(j, labeled, x, y))
      val exclude = scala.collection.mutable.HashMap.empty[Double, Int]
      (oldX +: oldAffected.toIndexedSeq).foreach(v => exclude.updateWith(v)(c => Some(c.getOrElse(0) + 1)))
      val pool = scala.collection.mutable.ArrayBuffer.empty[Double]
      var i = 0
      // Prefix large enough that `future` unchanged survivors are present.
      val prefixNeed = future + affected.length + 1
      while (i < sortedVals.length && pool.length < prefixNeed) {
        val v = sortedVals(i)
        val cnt = exclude.getOrElse(v, 0)
        if (cnt > 0) exclude.update(v, cnt - 1) else pool += v
        i += 1
      }
      pool ++= newAffected
      pool.sortInPlace()(Ordering[Double].reverse)
      var s = 0.0
      var t = 0
      while (t < future && t < pool.length) { s += pool(t); t += 1 }
      s
    }
    px * (1.0 + topSumGiven(true)) + (1.0 - px) * topSumGiven(false)
  }
}

object Ens {
  /** Pseudo-count w₀ of the prior γ_i in the posterior. */
  private val PriorWeight = 1.0

  /** Nodes scored by the lookahead per selection. */
  private val MaxCandidates = 64
}
