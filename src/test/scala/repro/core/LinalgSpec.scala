package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Reference

class LinalgSpec extends AnyFunSuite {

  private def fv(xs: Double*): Array[Float] = xs.map(_.toFloat).toArray
  private def dv(xs: Double*): Array[Double] = xs.toArray
  private val Eps = 1e-6

  test("dot of orthogonal vectors is 0") {
    assert(Linalg.dot(fv(1, 0), fv(0, 1)) == 0.0)
  }

  test("dot computes inner product") {
    assert(math.abs(Linalg.dot(fv(1, 2, 3), fv(4, 5, 6)) - 32.0) < Eps)
  }

  test("dot rejects mismatched dims") {
    assertThrows[IllegalArgumentException](Linalg.dot(fv(1), fv(1, 2)))
  }

  test("dotDD on doubles") {
    assert(Linalg.dotDD(dv(1, 1), dv(2, 3)) == 5.0)
  }

  test("norm of a unit axis vector is 1") {
    assert(math.abs(Linalg.norm(fv(0, 1, 0)) - 1.0) < Eps)
  }

  test("normalize yields unit norm") {
    val v = Linalg.normalize(fv(3, 4))
    assert(math.abs(Linalg.norm(v) - 1.0) < Eps)
    assert(math.abs(v(0) - 0.6) < Eps && math.abs(v(1) - 0.8) < Eps)
  }

  test("normalize of zero vector is identity") {
    val z = Linalg.normalize(fv(0, 0, 0))
    assert(z.forall(_ == 0.0f))
  }

  test("normalizeD yields unit norm") {
    assert(math.abs(Linalg.normD(Linalg.normalizeD(dv(1, 2, 2))) - 1.0) < Eps)
  }

  test("axpy accumulates in place") {
    val y = fv(1, 1)
    Linalg.axpy(2.0, fv(3, 4), y)
    assert(math.abs(y(0) - 7.0) < Eps && math.abs(y(1) - 9.0) < Eps)
  }

  test("axpyD accumulates in place") {
    val y = dv(1, 1)
    Linalg.axpyD(-1.0, dv(1, 2), y)
    assert(y.sameElements(dv(0, -1)))
  }

  test("scale and sub") {
    assert(Linalg.scale(2.0, dv(1, 2)).sameElements(dv(2, 4)))
    assert(Linalg.sub(dv(3, 3), dv(1, 2)).sameElements(dv(2, 1)))
  }

  test("scale, normalize and normalizeD equal their Array.map expressions bit for bit") {
    import java.lang.Double.doubleToRawLongBits
    import java.lang.Float.floatToRawIntBits
    val floats = (0 until 6).map(s => Rng.gaussianVector(Rng.key(93, s.toLong), 1 + 37 * s)) ++
      Seq(fv(3, 4), fv(1e-30, -2e-30), fv(1e-10, 3e-11), fv(1e30, 3e30, -1))
    for (a <- floats) {
      val n = Linalg.norm(a)
      val old = if (n < 1e-12) a.clone() else a.map(v => (v / n).toFloat)
      assert(Linalg.normalize(a).map(floatToRawIntBits).toSeq == old.map(floatToRawIntBits).toSeq)
      val d = Linalg.toDouble(a).map(_ * 1.5)
      val nd = Linalg.normD(d)
      val oldD = if (nd < 1e-12) d.clone() else d.map(_ / nd)
      assert(Linalg.normalizeD(d).map(doubleToRawLongBits).toSeq == oldD.map(doubleToRawLongBits).toSeq)
      for (alpha <- Seq(-1.0, 0.1, -0.0, 3e-300))
        assert(Linalg.scale(alpha, d).map(doubleToRawLongBits).toSeq == d.map(_ * alpha).map(doubleToRawLongBits).toSeq)
    }
  }

  test("toDouble/toFloat round-trip") {
    val v = fv(0.25, -1.5)
    assert(Linalg.toFloat(Linalg.toDouble(v)).sameElements(v))
  }

  test("sqDist is squared Euclidean distance") {
    assert(math.abs(Linalg.sqDist(fv(0, 0), fv(3, 4)) - 25.0) < Eps)
  }

  test("sqDist is zero to itself") {
    val v = Rng.gaussianVector(1L, 32)
    assert(Linalg.sqDist(v, v) == 0.0)
  }

  test("cosine of identical directions is 1") {
    assert(math.abs(Reference.cosine(fv(2, 0), fv(5, 0)) - 1.0) < Eps)
  }

  test("cosine of opposite directions is -1") {
    assert(math.abs(Reference.cosine(fv(1, 1), fv(-2, -2)) + 1.0) < Eps)
  }

  test("cosine with zero vector is 0") {
    assert(Reference.cosine(fv(0, 0), fv(1, 1)) == 0.0)
  }

  test("symMatVec multiplies row-major matrix by vector") {
    val m = dv(1, 2, 3, 4) // [[1,2],[3,4]]
    val r = Linalg.symMatVec(m, 2, dv(1, 1))
    assert(r.sameElements(dv(3, 7)))
  }

  test("symMatVec validates shapes") {
    assertThrows[IllegalArgumentException](Linalg.symMatVec(dv(1, 2, 3), 2, dv(1, 1)))
    assertThrows[IllegalArgumentException](Linalg.symMatVec(dv(1, 2, 3, 4), 2, dv(1)))
  }

  test("symMatVec equals the row-by-row sum bit for bit") {
    for (d <- (1 to 17) :+ 128; s <- 0 until 3) {
      val m = Linalg.toDouble(Rng.gaussianVector(Rng.key(12, d.toLong, s.toLong), d * d))
      val x = Linalg.toDouble(Rng.gaussianVector(Rng.key(13, d.toLong, s.toLong), d)).map(_ * math.pow(10, 4 * s - 4))
      val got = Linalg.symMatVec(m, d, x).map(java.lang.Double.doubleToRawLongBits)
      val want = Reference.symMatVec(m, d, x).map(java.lang.Double.doubleToRawLongBits)
      assert(got.sameElements(want), s"d $d seed $s")
    }
  }

  test("quadForm computes x^T M x") {
    val m = dv(2, 0, 0, 3)
    assert(Reference.quadForm(m, 2, dv(1, 2)) == 2.0 + 12.0)
  }

  test("addOuter adds alpha v v^T") {
    val m = new Array[Double](4)
    Linalg.addOuter(m, 2, 2.0, dv(1, 2))
    assert(m.sameElements(dv(2, 4, 4, 8)))
  }

  test("addOuter keeps matrix symmetric") {
    val m = new Array[Double](9)
    Linalg.addOuter(m, 3, 1.5, dv(1, -2, 0.5))
    for (r <- 0 until 3; c <- 0 until 3)
      assert(m(r * 3 + c) == m(c * 3 + r))
  }

  test("mean of vectors") {
    val m = Linalg.mean(Seq(fv(1, 3), fv(3, 5)))
    assert(m.sameElements(fv(2, 4)))
  }

  test("mean of empty set throws") {
    assertThrows[IllegalArgumentException](Linalg.mean(Seq.empty))
  }

  test("dot is commutative and bilinear on random vectors") {
    for (s <- 0 until 20) {
      val a = Rng.gaussianVector(Rng.key(10, s), 16)
      val b = Rng.gaussianVector(Rng.key(11, s), 16)
      assert(math.abs(Linalg.dot(a, b) - Linalg.dot(b, a)) < 1e-9)
      val a2 = a.map(v => (2.0f * v))
      assert(math.abs(Linalg.dot(a2, b) - 2.0 * Linalg.dot(a, b)) < 1e-4)
    }
  }

  test("quadForm of an outer product equals squared dot") {
    for (s <- 0 until 10) {
      val v = Linalg.toDouble(Rng.gaussianVector(Rng.key(20, s), 8))
      val x = Linalg.toDouble(Rng.gaussianVector(Rng.key(21, s), 8))
      val m = new Array[Double](64)
      Linalg.addOuter(m, 8, 1.0, v)
      val expected = math.pow(Linalg.dotDD(v, x), 2)
      assert(math.abs(Reference.quadForm(m, 8, x) - expected) < 1e-9 * math.max(1, math.abs(expected)))
    }
  }
}
