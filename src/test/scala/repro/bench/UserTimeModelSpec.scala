package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rng

class UserTimeModelSpec extends AnyFunSuite {

  private val model = UserTimeModel.FromPaper

  test("cell lookup returns the right distribution") {
    assert(model.cell(marked = false, seesaw = false).meanSeconds == 1.98)
    assert(model.cell(marked = true, seesaw = false).meanSeconds == 3.00)
    assert(model.cell(marked = false, seesaw = true).meanSeconds == 2.40)
    assert(model.cell(marked = true, seesaw = true).meanSeconds == 4.40)
  }

  test("samples are deterministic in the key") {
    assert(model.sample(42L, marked = true, seesaw = true) ==
      model.sample(42L, marked = true, seesaw = true))
  }

  test("samples are never below the floor") {
    for (s <- 0 until 2000) {
      val t = model.sample(Rng.key(1, s), marked = s % 2 == 0, seesaw = s % 3 == 0)
      assert(t >= 0.3)
    }
  }

  test("sample means converge to the configured cell means") {
    for ((marked, seesaw) <- Seq((false, false), (true, false), (false, true), (true, true))) {
      val xs = (0 until 20000).map(i => model.sample(Rng.key(2, i), marked, seesaw))
      val m = xs.sum / xs.size
      val want = model.cell(marked, seesaw).meanSeconds
      // Truncation at 0.3s biases slightly upward; allow a small tolerance.
      assert(math.abs(m - want) < 0.08, s"cell ($marked,$seesaw): $m vs $want")
    }
  }

  test("marked-relevant takes longer than not-marked on average") {
    def mean(marked: Boolean, seesaw: Boolean): Double = {
      val xs = (0 until 5000).map(i => model.sample(Rng.key(3, i), marked, seesaw))
      xs.sum / xs.size
    }
    assert(mean(marked = true, seesaw = false) > mean(marked = false, seesaw = false))
    assert(mean(marked = true, seesaw = true) > mean(marked = false, seesaw = true))
  }

  test("seesaw adds overhead over the baseline in both cells (Table 5 shape)") {
    def mean(marked: Boolean, seesaw: Boolean): Double = {
      val xs = (0 until 5000).map(i => model.sample(Rng.key(4, i), marked, seesaw))
      xs.sum / xs.size
    }
    assert(mean(marked = false, seesaw = true) > mean(marked = false, seesaw = false))
    assert(mean(marked = true, seesaw = true) > mean(marked = true, seesaw = false))
  }

  test("meanCi computes mean and nonnegative half-width") {
    val (m, ci) = UserTimeModel.meanCi(Seq(1.0, 2.0, 3.0))
    assert(m == 2.0)
    assert(ci > 0)
    val (m1, ci1) = UserTimeModel.meanCi(Seq(5.0))
    assert(m1 == 5.0 && ci1 == 0.0)
  }

  test("meanCi shrinks with sample size") {
    val small = UserTimeModel.meanCi((0 until 10).map(i => Rng.gaussian(Rng.key(5, i))))._2
    val large = UserTimeModel.meanCi((0 until 1000).map(i => Rng.gaussian(Rng.key(5, i))))._2
    assert(large < small)
  }

  test("invalid cells are rejected") {
    assertThrows[IllegalArgumentException](TimeCell(-1.0, 0.5))
    assertThrows[IllegalArgumentException](TimeCell(1.0, -0.5))
    assertThrows[IllegalArgumentException](UserTimeModel.meanCi(Seq.empty))
  }
}
