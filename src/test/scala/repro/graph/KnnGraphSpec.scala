package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.Reference
import repro.core.{Linalg, Rng}

class KnnGraphSpec extends AnyFunSuite {

  private def randomVecs(n: Int, dim: Int, seed: Long): IndexedSeq[Array[Float]] =
    (0 until n).map(i => Linalg.normalize(Rng.gaussianVector(Rng.key(seed, i), dim)))

  /** Two tight clusters far apart. */
  private def clustered(nPer: Int, dim: Int, seed: Long): IndexedSeq[Array[Float]] = {
    val c1 = Linalg.normalize(Rng.gaussianVector(Rng.key(seed, 900L), dim))
    val c2 = c1.map(-_)
    (0 until 2 * nPer).map { i =>
      val c = if (i < nPer) c1 else c2
      val v = c.clone()
      Linalg.axpy(0.1, Linalg.normalize(Rng.gaussianVector(Rng.key(seed, i), dim)), v)
      Linalg.normalize(v)
    }
  }

  test("gaussianWeight is 1 at distance 0 and decays") {
    assert(KnnGraph.gaussianWeight(0.0, 0.5) == 1.0)
    assert(KnnGraph.gaussianWeight(1.0, 0.5) < KnnGraph.gaussianWeight(0.5, 0.5))
    assert(KnnGraph.gaussianWeight(10.0, 0.5) < 1e-8)
  }

  test("brute force finds the true nearest neighbors on a line") {
    // Points at positions 0,1,2,... along one axis: neighbors are adjacent.
    val vecs = (0 until 10).map { i =>
      val v = new Array[Float](4); v(0) = i.toFloat; v
    }
    val g = Reference.knnBruteForce(vecs, k = 2, sigma = 1.0)
    assert(g.neighbors(0).toSet == Set(1, 2))
    assert(g.neighbors(5).toSet == Set(4, 6))
    assert(g.neighbors(9).toSet == Set(8, 7))
  }

  test("brute force neighbor lists are sorted by distance") {
    val vecs = randomVecs(40, 8, 1)
    val g = Reference.knnBruteForce(vecs, k = 5, sigma = 0.5)
    for (i <- vecs.indices) {
      val dists = g.neighbors(i).map(j => Linalg.sqDist(vecs(i), vecs(j)))
      assert(dists.sorted.sameElements(dists), s"node $i: ${dists.toSeq}")
      // Weights decrease with distance.
      assert(g.weights(i).sorted.reverse.sameElements(g.weights(i)))
    }
  }

  test("brute force never lists a node as its own neighbor") {
    val g = Reference.knnBruteForce(randomVecs(30, 8, 2), k = 4, sigma = 0.5)
    for (i <- 0 until 30) assert(!g.neighbors(i).contains(i))
  }

  test("nn-descent achieves high recall vs brute force on random data") {
    val vecs = randomVecs(300, 16, 3)
    val exact = Reference.knnBruteForce(vecs, k = 10, sigma = 0.5)
    val approx = KnnGraph.nnDescent(vecs, k = 10, sigma = 0.5)
    val recall = Reference.recallAgainst(approx, exact)
    assert(recall > 0.90, s"recall $recall")
  }

  test("nn-descent achieves high recall on clustered data") {
    val vecs = clustered(150, 16, 4)
    val exact = Reference.knnBruteForce(vecs, k = 8, sigma = 0.5)
    val approx = KnnGraph.nnDescent(vecs, k = 8, sigma = 0.5)
    val recall = Reference.recallAgainst(approx, exact)
    assert(recall > 0.90, s"recall $recall")
  }

  test("nn-descent keeps neighbors within the same cluster") {
    val vecs = clustered(50, 16, 5)
    val g = KnnGraph.nnDescent(vecs, k = 5, sigma = 0.5)
    var sameCluster = 0; var total = 0
    for (i <- vecs.indices; j <- g.neighbors(i)) {
      total += 1
      if ((i < 50) == (j < 50)) sameCluster += 1
    }
    assert(sameCluster.toDouble / total > 0.98, s"$sameCluster/$total")
  }

  test("nn-descent is deterministic in the seed") {
    val vecs = randomVecs(100, 8, 6)
    val a = KnnGraph.nnDescent(vecs, k = 5, sigma = 0.5)
    val b = KnnGraph.nnDescent(vecs, k = 5, sigma = 0.5)
    for (i <- vecs.indices) assert(a.neighbors(i).sameElements(b.neighbors(i)))
  }

  test("nn-descent neighbor lists have no self-loops or duplicates") {
    val vecs = randomVecs(120, 8, 7)
    val g = KnnGraph.nnDescent(vecs, k = 6, sigma = 0.5)
    for (i <- vecs.indices) {
      assert(!g.neighbors(i).contains(i))
      assert(g.neighbors(i).distinct.length == g.neighbors(i).length)
    }
  }

  test("symEdges contains each unordered pair once with symmetric weight") {
    val vecs = randomVecs(50, 8, 8)
    val g = Reference.knnBruteForce(vecs, k = 4, sigma = 0.5)
    val edges = g.symEdges.toSeq
    val pairs = edges.map { case (a, b, _) => (a, b) }
    assert(pairs.distinct.size == pairs.size)
    pairs.foreach { case (a, b) => assert(a < b) }
    // If both directions exist in the directed graph, weight = w; if one, w/2.
    edges.foreach { case (a, b, w) =>
      val wab = g.neighbors(a).indexOf(b) match { case -1 => 0.0; case i => g.weights(a)(i) }
      val wba = g.neighbors(b).indexOf(a) match { case -1 => 0.0; case i => g.weights(b)(i) }
      assert(math.abs(w - (wab + wba) / 2.0) < 1e-12)
    }
  }

  test("recallAgainst of a graph with itself is 1") {
    val vecs = randomVecs(30, 8, 10)
    val g = Reference.knnBruteForce(vecs, k = 4, sigma = 0.5)
    assert(Reference.recallAgainst(g, g) == 1.0)
  }

  test("k bounds are validated") {
    val vecs = randomVecs(5, 4, 11)
    assertThrows[IllegalArgumentException](Reference.knnBruteForce(vecs, k = 5, sigma = 0.5))
    assertThrows[IllegalArgumentException](KnnGraph.nnDescent(vecs, k = 0, sigma = 0.5))
  }
}
