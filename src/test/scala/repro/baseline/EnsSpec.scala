package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.Reference
import repro.core.{Linalg, Rng}
import repro.graph.KnnGraph

class EnsSpec extends AnyFunSuite {

  /** Hand-built graph from explicit directed neighbor lists (unit weights). */
  private def graphOf(neighbors: Array[Array[Int]]): KnnGraph =
    KnnGraph(
      k = neighbors.map(_.length).max,
      sigma = 0.5,
      neighbors = neighbors,
      weights = neighbors.map(_.map(_ => 1.0)),
    )

  private def clusterVecs(nPer: Int, seed: Long, dim: Int = 12): IndexedSeq[Array[Float]] = {
    val c1 = Linalg.normalize(Rng.gaussianVector(Rng.key(seed, 700L), dim))
    val c2 = c1.map(-_)
    (0 until 2 * nPer).map { i =>
      val v = (if (i < nPer) c1 else c2).clone()
      Linalg.axpy(0.1, Linalg.normalize(Rng.gaussianVector(Rng.key(seed, i), dim)), v)
      Linalg.normalize(v)
    }
  }

  test("posterior with no labels equals the prior") {
    val g = graphOf(Array(Array(1), Array(0)))
    val ens = new Ens(g, Array(0.3, 0.8))
    assert(ens.posterior(0, Map.empty) == 0.3)
    assert(ens.posterior(1, Map.empty) == 0.8)
  }

  test("posterior follows the pseudo-count kNN formula") {
    // Node 0's neighbors: 1, 2. Label 1 positive, 2 negative, prior .5, w0=1:
    // p = (.5*1 + 1) / (1 + 2) = 0.5
    val g = graphOf(Array(Array(1, 2), Array(0), Array(0)))
    val ens = new Ens(g, Array(0.5, 0.5, 0.5))
    val p = ens.posterior(0, Map(1 -> true, 2 -> false))
    assert(math.abs(p - 0.5) < 1e-12)
    // All neighbors positive: p = (.5 + 2)/3
    val p2 = ens.posterior(0, Map(1 -> true, 2 -> true))
    assert(math.abs(p2 - 2.5 / 3.0) < 1e-12)
  }

  test("positive neighbor labels raise the posterior, negative lower it") {
    val g = graphOf(Array(Array(1, 2), Array(0), Array(0)))
    val ens = new Ens(g, Array(0.4, 0.4, 0.4))
    val base = ens.posterior(0, Map.empty)
    assert(ens.posterior(0, Map(1 -> true)) > base)
    assert(ens.posterior(0, Map(1 -> false)) < base)
  }

  test("horizon=1 is greedy: picks the max-posterior unlabeled node") {
    val g = graphOf(Array(Array(1), Array(0), Array(0), Array(1)))
    val ens = new Ens(g, Array(0.2, 0.9, 0.5, 0.1))
    assert(ens.selectNext(Map.empty, horizon = 1) == 1)
    // Once 1 is labeled it cannot be picked again.
    val next = ens.selectNext(Map(1 -> true), horizon = 1)
    assert(next != 1)
  }

  test("labeled nodes are never selected") {
    val vecs = clusterVecs(10, 1)
    val g = Reference.knnBruteForce(vecs, k = 3, sigma = 0.5)
    val ens = new Ens(g, Array.fill(g.n)(0.5))
    var labeled = Map.empty[Int, Boolean]
    for (_ <- 0 until 10) {
      val pick = ens.selectNext(labeled, horizon = 5)
      assert(!labeled.contains(pick))
      labeled += pick -> (pick % 2 == 0)
    }
  }

  test("lookahead prefers a promising dense cluster over an isolated point") {
    // Star cluster: node 0 connected to many unlabeled nodes with moderate
    // prior; isolated node 9 with slightly higher prior. With a long horizon
    // ENS should prefer the cluster (finding 0 positive raises many future
    // probabilities); greedy picks the isolated point.
    val neighbors = Array(
      Array(1, 2, 3, 4), // 0 ↔ cluster
      Array(0, 2), Array(0, 1), Array(0, 4), Array(0, 3),
      Array(6), Array(5), // filler pair
      Array(8), Array(7),
      Array(5), // 9: isolated-ish, its label informs almost nobody
    )
    val prior = Array(0.50, 0.45, 0.45, 0.45, 0.45, 0.05, 0.05, 0.05, 0.05, 0.52)
    val ens = new Ens(graphOf(neighbors), prior)
    assert(ens.selectNext(Map.empty, horizon = 1) == 9) // greedy takes the top prior
    val farSighted = ens.selectNext(Map.empty, horizon = 6)
    assert(farSighted == 0, s"picked $farSighted") // lookahead takes the cluster hub
  }

  test("expected utility is exact: brute-force verification on a tiny graph") {
    // Verify selectNext(horizon=2) against a direct enumeration of
    // U(x) = p_x (1 + max_j p_j|x=1) + (1-p_x) max_j p_j|x=0.
    val neighbors = Array(Array(1, 2), Array(0, 2), Array(0, 1), Array(0))
    val g = graphOf(neighbors)
    val prior = Array(0.6, 0.4, 0.3, 0.55)
    val ens = new Ens(g, prior)
    val labeled = Map.empty[Int, Boolean]
    def postWith(i: Int, x: Int, y: Boolean): Double = {
      val ns = neighbors(i)
      val cnt = ns.count(_ == x)
      val pos = if (y) cnt else 0
      (prior(i) + pos) / (1.0 + cnt)
    }
    val utilities = (0 until 4).map { x =>
      val px = ens.posterior(x, labeled)
      def best(y: Boolean): Double =
        (0 until 4).filter(_ != x).map(j => postWith(j, x, y)).max
      x -> (px * (1 + best(true)) + (1 - px) * best(false))
    }.toMap
    val expected = utilities.maxBy { case (x, u) => (u, -x) }._1
    assert(ens.selectNext(labeled, horizon = 2) == expected,
      s"utilities $utilities")
  }

  test("priors must be probabilities and match the graph size") {
    val g = graphOf(Array(Array(1), Array(0)))
    assertThrows[IllegalArgumentException](new Ens(g, Array(0.5)))
    assertThrows[IllegalArgumentException](new Ens(g, Array(1.5, 0.5)))
  }

  test("horizon must be at least 1 and some node unlabeled") {
    val g = graphOf(Array(Array(1), Array(0)))
    val ens = new Ens(g, Array(0.5, 0.5))
    assertThrows[IllegalArgumentException](ens.selectNext(Map.empty, 0))
    assertThrows[IllegalArgumentException](ens.selectNext(Map(0 -> true, 1 -> false), 1))
  }

  test("selection is deterministic") {
    val vecs = clusterVecs(15, 2)
    val g = Reference.knnBruteForce(vecs, k = 4, sigma = 0.5)
    val prior = vecs.indices.map(i => 0.1 + 0.02 * (i % 7)).toArray
    val ens = new Ens(g, prior)
    val labeled = Map(0 -> true, 20 -> false)
    assert(ens.selectNext(labeled, 10) == ens.selectNext(labeled, 10))
  }
}
