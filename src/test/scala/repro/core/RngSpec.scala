package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

class RngSpec extends AnyFunSuite {

  private val keys: Seq[Long] =
    (0L until 500L).map(i => Rng.key(0xabcL, i)) ++ Seq(Long.MinValue, -1L, 0L, 1L, Long.MaxValue)

  test("mix is deterministic") {
    assert(Rng.mix(42L) == Rng.mix(42L))
  }

  test("mix has no collisions on a small sample") {
    val outs = (0L until 10000L).map(Rng.mix).toSet
    assert(outs.size == 10000)
  }

  test("key is order-sensitive") {
    assert(Rng.key(1, 2, 3) != Rng.key(1, 3, 2))
  }

  test("key with no parts equals mixed seed") {
    assert(Rng.key(7) == Rng.mix(7))
  }

  test("one-part key equals the varargs key") {
    val edge = Gen.oneOf(0L, -1L, 1L, Long.MinValue, Long.MaxValue)
    val long = Gen.frequency(1 -> edge, 3 -> Gen.long)
    val prop = Prop.forAll(long, long)((s: Long, p: Long) => Rng.key(s, p) == Rng.key(s, Seq(p): _*))
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(result.passed, result.status)
    for (s <- Seq(0L, -1L, Long.MinValue); p <- Seq(0L, -1L, Long.MinValue))
      assert(Rng.key(s, p) == Rng.key(s, Seq(p): _*))
  }

  test("uniform stays in [0,1) for arbitrary keys") {
    keys.foreach { k =>
      val u = Rng.uniform(k)
      assert(u >= 0.0 && u < 1.0, s"key $k -> $u")
    }
  }

  test("uniform(lo,hi) stays in range") {
    keys.foreach { k =>
      val u = Rng.uniform(k, 2.0, 5.0)
      assert(u >= 2.0 && u < 5.0)
    }
  }

  test("uniform mean is ~0.5") {
    val xs = (0L until 20000L).map(i => Rng.uniform(Rng.key(9, i)))
    val m = xs.sum / xs.size
    assert(math.abs(m - 0.5) < 0.01, s"mean was $m")
  }

  test("int stays in [0,n)") {
    keys.foreach { k =>
      val v = Rng.int(k, 17)
      assert(v >= 0 && v < 17)
    }
  }

  test("int rejects non-positive n") {
    assertThrows[IllegalArgumentException](Rng.int(1L, 0))
  }

  test("int covers all values of a small range") {
    val seen = (0L until 2000L).map(i => Rng.int(Rng.key(3, i), 7)).toSet
    assert(seen == (0 until 7).toSet)
  }

  test("gaussian has ~zero mean and ~unit variance") {
    val xs = (0L until 20000L).map(i => Rng.gaussian(Rng.key(5, i)))
    val m = xs.sum / xs.size
    val v = xs.map(x => (x - m) * (x - m)).sum / xs.size
    assert(math.abs(m) < 0.03, s"mean $m")
    assert(math.abs(v - 1.0) < 0.05, s"var $v")
  }

  test("gaussianVector is deterministic and has requested length") {
    val a = Rng.gaussianVector(123L, 64)
    val b = Rng.gaussianVector(123L, 64)
    assert(a.length == 64)
    assert(a.sameElements(b))
  }

  test("gaussianVector differs across keys") {
    assert(!Rng.gaussianVector(1L, 16).sameElements(Rng.gaussianVector(2L, 16)))
  }

  test("categorical respects weights") {
    val w = Array(1.0, 0.0, 3.0)
    val draws = (0L until 10000L).map(i => Rng.categorical(Rng.key(8, i), w))
    assert(!draws.contains(1))
    val frac2 = draws.count(_ == 2).toDouble / draws.size
    assert(math.abs(frac2 - 0.75) < 0.02, s"frac2 $frac2")
  }

  test("categorical rejects zero-sum weights") {
    assertThrows[IllegalArgumentException](Rng.categorical(1L, Array(0.0, 0.0)))
  }

  test("categorical with a single weight returns 0") {
    keys.foreach(k => assert(Rng.categorical(k, Array(2.5)) == 0))
  }

  test("zipf favors low ranks") {
    val draws = (0L until 10000L).map(i => Rng.zipf(Rng.key(4, i), 10, 1.0))
    val c0 = draws.count(_ == 0)
    val c9 = draws.count(_ == 9)
    assert(c0 > 5 * c9, s"c0=$c0 c9=$c9")
  }

  test("zipf stays in range") {
    keys.foreach { k =>
      val v = Rng.zipf(k, 12, 0.8)
      assert(v >= 0 && v < 12)
    }
  }

  test("zipf with alpha=0 is near-uniform") {
    val draws = (0L until 20000L).map(i => Rng.zipf(Rng.key(6, i), 4, 0.0))
    val fracs = (0 until 4).map(c => draws.count(_ == c).toDouble / draws.size)
    fracs.foreach(f => assert(math.abs(f - 0.25) < 0.02, s"fracs $fracs"))
  }
}
