package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Reference
import repro.graph.DbAlign

class QueryAlignerSpec extends AnyFunSuite {

  private val Dim = 16

  private def unit(seed: Long): Array[Float] =
    Linalg.normalize(Rng.gaussianVector(seed, Dim))

  /** Cluster of noisy copies of a center. */
  private def cluster(center: Array[Float], n: Int, noise: Double, seed: Long): IndexedSeq[Array[Float]] =
    (0 until n).map { i =>
      val v = center.clone()
      Linalg.axpy(noise, Linalg.normalize(Rng.gaussianVector(Rng.key(seed, i), Dim)), v)
      Linalg.normalize(v)
    }

  test("no feedback returns q0 (normalized)") {
    val q0 = Rng.gaussianVector(1L, Dim) // unnormalized on purpose
    val out = QueryAligner.align(q0, IndexedSeq.empty, AlignerConfig.SeeSaw)
    assert(math.abs(Linalg.norm(out) - 1.0) < 1e-6)
    assert(Reference.cosine(out, q0) > 0.999999)
  }

  test("result is always unit norm") {
    val q0 = unit(2)
    val ex = cluster(unit(3), 5, 0.3, 4).map(Example(_, positive = true)) ++
      cluster(unit(5), 5, 0.3, 6).map(Example(_, positive = false))
    for (cfg <- Seq(AlignerConfig.FewShot, AlignerConfig.QueryAlign)) {
      val w = QueryAligner.align(q0, ex, cfg)
      assert(math.abs(Linalg.norm(w) - 1.0) < 1e-5)
    }
  }

  test("few-shot aligns with positives and away from negatives") {
    val pos = unit(11)
    val neg = unit(12)
    val ex = cluster(pos, 10, 0.2, 13).map(Example(_, positive = true)) ++
      cluster(neg, 10, 0.2, 14).map(Example(_, positive = false))
    val w = QueryAligner.align(unit(15), ex, AlignerConfig.FewShot)
    assert(Reference.cosine(w, pos) > Reference.cosine(w, neg))
    assert(Reference.cosine(w, pos) > 0.3)
  }

  test("large λ_c keeps the query near q0 even with contradictory feedback") {
    val q0 = unit(21)
    val other = unit(22)
    val ex = cluster(other, 8, 0.1, 23).map(Example(_, positive = true))
    val heavy = AlignerConfig(lambda = 1.0, lambdaC = 1e5, lambdaD = 0.0)
    val w = QueryAligner.align(q0, ex, heavy)
    assert(Reference.cosine(w, q0) > 0.99, s"cos=${Reference.cosine(w, q0)}")
  }

  test("λ_c = 0 with strong feedback moves fully to the data") {
    val q0 = unit(31)
    val target = unit(32)
    val ex = cluster(target, 20, 0.05, 33).map(Example(_, positive = true)) ++
      cluster(q0, 20, 0.05, 34).map(Example(_, positive = false))
    val w = QueryAligner.align(q0, ex, AlignerConfig.FewShot)
    assert(Reference.cosine(w, target) > Reference.cosine(w, q0))
  }

  test("CLIP alignment interpolates between q0 and the feedback direction") {
    val q0 = unit(41)
    val target = unit(42)
    val ex = cluster(target, 6, 0.1, 43).map(Example(_, positive = true))
    val few = QueryAligner.align(q0, ex, AlignerConfig.FewShot)
    val balanced = QueryAligner.align(q0, ex, AlignerConfig(lambda = 100, lambdaC = 10, lambdaD = 0))
    // Balanced stays closer to q0 than pure few-shot does.
    assert(Reference.cosine(balanced, q0) > Reference.cosine(few, q0) - 1e-9)
  }

  test("more feedback outweighs the CLIP prior progressively") {
    val q0 = unit(51)
    val target = unit(52)
    val cfg = AlignerConfig(lambda = 10, lambdaC = 10, lambdaD = 0)
    val cosines = Seq(2, 8, 32).map { n =>
      val ex = cluster(target, n, 0.1, 53).map(Example(_, positive = true)) ++
        cluster(unit(54), n, 0.1, 55).map(Example(_, positive = false))
      Reference.cosine(QueryAligner.align(q0, ex, cfg), target)
    }
    assert(cosines(2) > cosines(0), s"cosines $cosines")
  }

  test("DB alignment is a mild tilt that lowers the Laplacian penalty") {
    // Database: a tight relevant cluster at c1 and diffuse noise.
    val c1 = unit(61)
    val dbCluster = cluster(c1, 30, 0.15, 62)
    val dbNoise = (0 until 30).map(i => unit(Rng.key(63, i)))
    val db = dbCluster ++ dbNoise
    val graph = Reference.knnBruteForce(db, k = 5, sigma = 0.5)
    val mD = DbAlign.fromGraphLocal(graph, db)

    val q0 = unit(64)
    val ex = dbCluster.take(3).map(Example(_, positive = true)) ++
      dbNoise.take(3).map(Example(_, positive = false))
    val without = QueryAligner.align(q0, ex, AlignerConfig(lambda = 100, lambdaC = 10, lambdaD = 0))
    val withDb = QueryAligner.align(q0, ex,
      AlignerConfig(lambda = 100, lambdaC = 10, lambdaD = 1000), Some(mD))
    def penalty(w: Array[Float]): Double = Reference.quadForm(mD, Linalg.toDouble(w))
    // The extra term can only trade data/CLIP fit for smoothness: the
    // returned direction must have a no-larger Laplacian penalty…
    assert(penalty(withDb) <= penalty(without) + 1e-6,
      s"withDb=${penalty(withDb)} without=${penalty(without)}")
    // …while remaining a mild tilt, not a hijack of the query.
    assert(Reference.cosine(withDb, without) > 0.7,
      s"cos=${Reference.cosine(withDb, without)}")
  }

  test("aligner is deterministic") {
    val q0 = unit(71)
    val ex = cluster(unit(72), 5, 0.2, 73).map(Example(_, positive = true))
    val a = QueryAligner.align(q0, ex, AlignerConfig.QueryAlign)
    val b = QueryAligner.align(q0, ex, AlignerConfig.QueryAlign)
    assert(a.sameElements(b))
  }

  test("λ_D > 0 without an M_D matrix is rejected") {
    val ex = cluster(unit(81), 3, 0.2, 82).map(Example(_, positive = true))
    assertThrows[IllegalArgumentException](QueryAligner.align(unit(83), ex, AlignerConfig.SeeSaw))
  }

  test("config presets match the paper's defaults") {
    assert(AlignerConfig.SeeSaw.lambda == 100.0)
    assert(AlignerConfig.SeeSaw.lambdaC == 10.0)
    assert(AlignerConfig.SeeSaw.lambdaD == 1000.0)
    assert(AlignerConfig.FewShot.lambdaC == 0.0 && AlignerConfig.FewShot.lambdaD == 0.0)
    assert(AlignerConfig.QueryAlign.lambdaC == 10.0 && AlignerConfig.QueryAlign.lambdaD == 0.0)
  }
}
