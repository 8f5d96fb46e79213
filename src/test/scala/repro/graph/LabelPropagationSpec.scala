package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.Reference
import repro.core.{Linalg, Rng}

class LabelPropagationSpec extends AnyFunSuite {

  /** Two tight clusters; returns (vectors, graph). */
  private def twoClusters(nPer: Int, seed: Long): (IndexedSeq[Array[Float]], KnnGraph) = {
    val dim = 16
    val c1 = Linalg.normalize(Rng.gaussianVector(Rng.key(seed, 1L), dim))
    val c2 = c1.map(-_)
    val vecs = (0 until 2 * nPer).map { i =>
      val c = if (i < nPer) c1 else c2
      val v = c.clone()
      Linalg.axpy(0.15, Linalg.normalize(Rng.gaussianVector(Rng.key(seed, i), dim)), v)
      Linalg.normalize(v)
    }
    (vecs, Reference.knnBruteForce(vecs, k = 5, sigma = 0.5))
  }

  test("labels propagate within clusters") {
    val (_, g) = twoClusters(30, 1)
    val f = new LabelPropagation.Propagator(g).propagate(Map(0 -> 1.0, 30 -> 0.0))
    // Cluster 1 (0..29) should be near 1, cluster 2 near 0.
    val c1Mean = (1 until 30).map(f(_)).sum / 29
    val c2Mean = (31 until 60).map(f(_)).sum / 29
    assert(c1Mean > 0.8, s"c1 $c1Mean")
    assert(c2Mean < 0.2, s"c2 $c2Mean")
  }

  test("labeled nodes stay clamped") {
    val (_, g) = twoClusters(20, 2)
    val f = new LabelPropagation.Propagator(g).propagate(Map(3 -> 1.0, 25 -> 0.0))
    assert(f(3) == 1.0)
    assert(f(25) == 0.0)
  }

  test("scores stay within [0,1]") {
    val (_, g) = twoClusters(25, 3)
    val f = new LabelPropagation.Propagator(g).propagate(Map(0 -> 1.0, 40 -> 0.0, 10 -> 1.0))
    f.foreach(v => assert(v >= -1e-12 && v <= 1.0 + 1e-12))
  }

  test("no labels leaves the prior everywhere") {
    val (_, g) = twoClusters(10, 4)
    val f = new LabelPropagation.Propagator(g).propagate(Map.empty)
    f.foreach(v => assert(v == 0.0))
  }

  test("all-positive labels pull everything up") {
    val (_, g) = twoClusters(15, 6)
    val f = new LabelPropagation.Propagator(g).propagate(Map(0 -> 1.0, 1 -> 1.0, 16 -> 1.0))
    val meanNear = (2 until 15).map(f(_)).sum / 13
    assert(meanNear > 0.5, s"mean $meanNear")
  }

  test("rejects invalid labels") {
    val (_, g) = twoClusters(5, 8)
    val prop = new LabelPropagation.Propagator(g)
    assertThrows[IllegalArgumentException](prop.propagate(Map(0 -> 0.5)))
    assertThrows[IllegalArgumentException](prop.propagate(Map(99 -> 1.0)))
  }

  test("Propagator reuse matches the one-shot API") {
    val (_, g) = twoClusters(20, 9)
    val prop = new LabelPropagation.Propagator(g)
    val labels = Map(0 -> 1.0, 21 -> 0.0)
    val a = prop.propagate(labels)
    val b = new LabelPropagation.Propagator(g).propagate(labels) // one-shot use
    assert(a.sameElements(b))
    // Reuse with different labels works.
    val c = prop.propagate(Map(5 -> 1.0))
    assert(c(5) == 1.0)
  }
}
