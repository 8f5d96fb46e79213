package repro.graph

import repro.{Reference, SparkSpec}
import repro.core.{Linalg, Rng}

class DbAlignSpec extends SparkSpec {

  private val Dim = 16

  private def randomVecs(n: Int, seed: Long): IndexedSeq[Array[Float]] =
    (0 until n).map(i => Linalg.normalize(Rng.gaussianVector(Rng.key(seed, i), Dim)))

  private def clusteredVecs(nPer: Int, seed: Long): IndexedSeq[Array[Float]] = {
    val c1 = Linalg.normalize(Rng.gaussianVector(Rng.key(seed, 800L), Dim))
    val c2 = c1.map(-_)
    (0 until 2 * nPer).map { i =>
      val v = (if (i < nPer) c1 else c2).clone()
      Linalg.axpy(0.12, Linalg.normalize(Rng.gaussianVector(Rng.key(seed, i), Dim)), v)
      Linalg.normalize(v)
    }
  }

  test("matrix has the declared shape and is symmetric") {
    val vecs = randomVecs(60, 1)
    val g = Reference.knnBruteForce(vecs, k = 4, sigma = 0.5)
    val m = DbAlign.fromGraphLocal(g, vecs)
    assert(m.dim == Dim)
    for (r <- 0 until Dim; c <- 0 until Dim)
      assert(math.abs(m.m(r * Dim + c) - m.m(c * Dim + r)) < 1e-12)
  }

  test("matrix is positive semidefinite (random quadratic forms ≥ 0)") {
    val vecs = randomVecs(60, 2)
    val g = Reference.knnBruteForce(vecs, k = 4, sigma = 0.5)
    val m = DbAlign.fromGraphLocal(g, vecs)
    for (s <- 0 until 50) {
      val w = Linalg.toDouble(Rng.gaussianVector(Rng.key(3, s), Dim))
      assert(Reference.quadForm(m, w) >= -1e-9, s"seed $s: ${Reference.quadForm(m, w)}")
    }
  }

  test("trace is normalized to dim × TraceScale") {
    val vecs = randomVecs(50, 4)
    val g = Reference.knnBruteForce(vecs, k = 4, sigma = 0.5)
    val m = DbAlign.fromGraphLocal(g, vecs)
    val tr = (0 until Dim).map(d => m.m(d * Dim + d)).sum
    assert(math.abs(tr - Dim * DbAlign.TraceScale) < 1e-9)
  }

  test("quadratic form equals the explicit Laplacian edge sum") {
    val vecs = randomVecs(40, 5)
    val g = Reference.knnBruteForce(vecs, k = 3, sigma = 0.5)
    // Unnormalized reference: Σ_sym w_ij ((x_i − x_j)·w)².
    val w = Linalg.toDouble(Rng.gaussianVector(77L, Dim))
    var ref = 0.0
    g.symEdges.foreach { case (a, b, wt) =>
      val d = Linalg.sub(Linalg.toDouble(vecs(a)), Linalg.toDouble(vecs(b)))
      ref += wt * math.pow(Linalg.dotDD(d, w), 2)
    }
    // Recover the normalization constant from traces.
    val raw = {
      val m = new Array[Double](Dim * Dim)
      g.symEdges.foreach { case (a, b, wt) =>
        val d = Linalg.sub(Linalg.toDouble(vecs(a)), Linalg.toDouble(vecs(b)))
        Linalg.addOuter(m, Dim, wt, d)
      }
      m
    }
    val trRaw = (0 until Dim).map(d => raw(d * Dim + d)).sum
    val m = DbAlign.fromGraphLocal(g, vecs)
    assert(math.abs(Reference.quadForm(m, w) - ref * (Dim * DbAlign.TraceScale / trRaw)) < 1e-9 * math.max(1, ref))
  }

  test("matVec agrees with quadForm") {
    val vecs = randomVecs(30, 6)
    val g = Reference.knnBruteForce(vecs, k = 3, sigma = 0.5)
    val m = DbAlign.fromGraphLocal(g, vecs)
    val w = Linalg.toDouble(Rng.gaussianVector(88L, Dim))
    assert(math.abs(Linalg.dotDD(m.matVec(w), w) - Reference.quadForm(m, w)) < 1e-12)
  }

  test("Spark construction equals local construction") {
    val vecs = randomVecs(80, 7)
    val g = Reference.knnBruteForce(vecs, k = 5, sigma = 0.5)
    val local = DbAlign.fromGraphLocal(g, vecs)
    val viaSpark = DbAlign.fromGraphSpark(spark, g, vecs)
    for (i <- local.m.indices)
      assert(math.abs(local.m(i) - viaSpark.m(i)) < 1e-9, s"entry $i")
  }

  test("on clustered data the cluster axis has low penalty vs a noise axis") {
    // Edges connect near-identical vectors within clusters; the direction
    // along the cluster axis varies little across edges, orthogonal noise
    // directions vary a lot — so the quadratic form should prefer the axis.
    val vecs = clusteredVecs(40, 8)
    val g = Reference.knnBruteForce(vecs, k = 5, sigma = 0.5)
    val m = DbAlign.fromGraphLocal(g, vecs)
    val axis = Linalg.toDouble(vecs.take(40).reduce { (a, b) =>
      val s = a.clone(); Linalg.axpy(1.0, b, s); s
    })
    val axisN = Linalg.normalizeD(axis)
    val penalties = (0 until 20).map { s =>
      val noise = Linalg.normalizeD(Linalg.toDouble(Rng.gaussianVector(Rng.key(99, s), Dim)))
      Reference.quadForm(m, noise)
    }
    val axisPenalty = Reference.quadForm(m, axisN)
    val meanNoise = penalties.sum / penalties.size
    assert(axisPenalty < meanNoise, s"axis $axisPenalty vs noise mean $meanNoise")
  }

  test("invalid shapes are rejected") {
    assertThrows[IllegalArgumentException](DbAlignMatrix(3, new Array[Double](5)))
    val vecs = randomVecs(10, 9)
    val g = Reference.knnBruteForce(vecs, k = 2, sigma = 0.5)
    assertThrows[IllegalArgumentException](DbAlign.fromGraphLocal(g, vecs.take(5)))
  }
}
