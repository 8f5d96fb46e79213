package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.Reference
import repro.core.{Example, Linalg, Rng}

class RocchioSpec extends AnyFunSuite {

  private def unit(seed: Long, dim: Int = 8): Array[Float] =
    Linalg.normalize(Rng.gaussianVector(seed, dim))

  test("matches the Eq. 6 formula on a hand computation") {
    val q0 = Array(1f, 0f, 0f)
    val pos = Seq(Array(0f, 1f, 0f), Array(0f, 3f, 0f))
    val neg = Seq(Array(0f, 0f, 2f))
    val ex = pos.map(Example(_, positive = true)) ++ neg.map(Example(_, positive = false))
    val q = Rocchio.update(q0, ex.toIndexedSeq)
    // raw = q0 + .5 * (0,2,0) - .25 * (0,0,2) = (1, 1, -0.5), then normalized.
    val raw = Array(1.0, 1.0, -0.5)
    val n = math.sqrt(raw.map(x => x * x).sum)
    for (i <- 0 until 3) assert(math.abs(q(i) - raw(i) / n) < 1e-6)
  }

  test("result is unit norm") {
    val ex = (0 until 10).map(i => Example(unit(Rng.key(1, i)), i % 2 == 0))
    val q = Rocchio.update(unit(2), ex)
    assert(math.abs(Linalg.norm(q) - 1.0) < 1e-6)
  }

  test("no feedback returns normalized alpha*q0 = q0 direction") {
    val q0 = unit(3)
    val q = Rocchio.update(q0, IndexedSeq.empty)
    assert(Reference.cosine(q, q0) > 0.999999)
  }

  test("only positives moves toward their mean") {
    val target = unit(4)
    val ex = (0 until 5).map { i =>
      val v = target.clone()
      Linalg.axpy(0.1, unit(Rng.key(5, i)), v)
      Example(Linalg.normalize(v), positive = true)
    }
    val q0 = unit(6)
    val q = Rocchio.update(q0, ex)
    assert(Reference.cosine(q, target) > Reference.cosine(q0, target))
  }

  test("only negatives moves away from their mean") {
    val bad = unit(7)
    val ex = (0 until 5).map(_ => Example(bad, positive = false))
    val q0 = unit(8)
    val q = Rocchio.update(q0, ex)
    assert(Reference.cosine(q, bad) < Reference.cosine(q0, bad))
  }

  test("update is deterministic") {
    val ex = (0 until 6).map(i => Example(unit(Rng.key(20, i)), i % 2 == 0))
    assert(Rocchio.update(unit(21), ex).sameElements(Rocchio.update(unit(21), ex)))
  }
}
