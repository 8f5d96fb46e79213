package repro.core

import java.lang.Double.doubleToRawLongBits

import org.scalatest.funsuite.AnyFunSuite
import repro.Reference
import repro.baseline.Platt

class LBFGSSpec extends AnyFunSuite {

  private def quadratic(center: Array[Double], scales: Array[Double]): LBFGS.Objective =
    (x: Array[Double]) => {
      var f = 0.0
      val g = new Array[Double](x.length)
      for (i <- x.indices) {
        val d = x(i) - center(i)
        f += scales(i) * d * d
        g(i) = 2 * scales(i) * d
      }
      (f, g)
    }

  private val rosenbrock: LBFGS.Objective = (x: Array[Double]) => {
    val a = 1.0; val b = 100.0
    val f = math.pow(a - x(0), 2) + b * math.pow(x(1) - x(0) * x(0), 2)
    val g0 = -2 * (a - x(0)) - 4 * b * x(0) * (x(1) - x(0) * x(0))
    val g1 = 2 * b * (x(1) - x(0) * x(0))
    (f, Array(g0, g1))
  }

  /** Ridge-logistic loss on points at ±u (labels 1 and 0) plus noise. */
  private def separableLogistic(u: Array[Double]): LBFGS.Objective = {
    val dim = u.length
    val xs = (0 until 40).map { i =>
      val sign = if (i % 2 == 0) 1.0 else -1.0
      val noise = Rng.gaussianVector(Rng.key(7, i), dim).map(_ * 0.05)
      val v = new Array[Double](dim)
      for (d <- 0 until dim) v(d) = sign * u(d) + noise(d)
      (v, i % 2 == 0)
    }
    (w: Array[Double]) => {
      var f = 0.01 * Linalg.dotDD(w, w)
      val g = Linalg.scale(0.02, w)
      xs.foreach { case (x, y) =>
        val z = Linalg.dotDD(w, x)
        val yy = if (y) 1.0 else 0.0
        f += (if (z > 0) z + math.log1p(math.exp(-z)) else math.log1p(math.exp(z))) - yy * z
        val p = 1.0 / (1.0 + math.exp(-z))
        Linalg.axpyD(p - yy, x, g)
      }
      (f, g)
    }
  }

  private val logisticDir = Linalg.normalizeD(Linalg.toDouble(Rng.gaussianVector(99L, 8)))

  /** Counts `valueAndGradient` calls; keeps the default point and line. */
  private final class Counting(f: LBFGS.Objective) extends LBFGS.Objective {
    var calls = 0
    override def valueAndGradient(x: Array[Double]): (Double, Array[Double]) = { calls += 1; f.valueAndGradient(x) }
  }

  private def sameBits(a: LBFGS.Result, b: LBFGS.Result): Boolean =
    a.x.map(doubleToRawLongBits).sameElements(b.x.map(doubleToRawLongBits)) &&
      doubleToRawLongBits(a.value) == doubleToRawLongBits(b.value) &&
      a.iterations == b.iterations && a.evaluations == b.evaluations && a.converged == b.converged

  test("minimizes a well-conditioned quadratic") {
    val res = LBFGS.minimize(quadratic(Array(1.0, -2.0), Array(1.0, 1.0)), Array(0.0, 0.0))
    assert(res.converged)
    assert(math.abs(res.x(0) - 1.0) < 1e-5)
    assert(math.abs(res.x(1) + 2.0) < 1e-5)
  }

  test("minimizes an ill-conditioned quadratic") {
    val res = LBFGS.minimize(
      quadratic(Array(3.0, -1.0, 0.5), Array(100.0, 1.0, 0.01)),
      Array(10.0, 10.0, 10.0), maxIters = 300)
    assert(math.abs(res.x(0) - 3.0) < 1e-3)
    assert(math.abs(res.x(1) + 1.0) < 1e-3)
    assert(math.abs(res.x(2) - 0.5) < 1e-2)
  }

  test("minimizes the 2-d Rosenbrock function") {
    val res = LBFGS.minimize(rosenbrock, Array(-1.2, 1.0), maxIters = 500, gradTol = 1e-7)
    assert(math.abs(res.x(0) - 1.0) < 1e-3, s"x=${res.x.toSeq}")
    assert(math.abs(res.x(1) - 1.0) < 1e-3, s"x=${res.x.toSeq}")
  }

  test("starting at the optimum converges immediately") {
    val res = LBFGS.minimize(quadratic(Array(0.0), Array(1.0)), Array(0.0))
    assert(res.converged)
    assert(res.iterations == 0)
  }

  test("value decreases monotonically through iterations") {
    // Track via a recording objective.
    val values = scala.collection.mutable.ArrayBuffer.empty[Double]
    val obj: LBFGS.Objective = (x: Array[Double]) => {
      val (f, g) = quadratic(Array(5.0, 5.0), Array(2.0, 0.5)).valueAndGradient(x)
      (f, g)
    }
    var last = Double.MaxValue
    // Run with increasing iteration caps; final value must never increase.
    for (cap <- Seq(1, 2, 5, 10, 50)) {
      val r = LBFGS.minimize(obj, Array(0.0, 0.0), maxIters = cap)
      assert(r.value <= last + 1e-12, s"cap $cap value ${r.value} > $last")
      last = r.value
      values += r.value
    }
    assert(values.last < 1e-8)
  }

  test("fits separable logistic regression direction") {
    // Points at +u labeled 1, at -u labeled 0; minimizer of ridge-logistic
    // loss points along u.
    val res = LBFGS.minimize(separableLogistic(logisticDir), new Array[Double](8), maxIters = 200)
    val cos = Linalg.dotDD(Linalg.normalizeD(res.x), logisticDir)
    assert(cos > 0.99, s"cos $cos")
  }

  test("result is deterministic") {
    def run() = LBFGS.minimize(quadratic(Array(2.0, -1.0), Array(3.0, 0.5)), Array(9.0, -9.0))
    assert(run().x.sameElements(run().x))
  }

  test("the default line changes no bits: results equal the pre-line L-BFGS") {
    val plattScores = (0 until 200).map(i => Rng.gaussian(Rng.key(11, i)))
    val plattLabels = plattScores.indices.map(i => Rng.uniform(Rng.key(12, i)) < 1.0 / (1.0 + math.exp(1.0 - 2.0 * plattScores(i))))
    val cases = Seq[(String, LBFGS.Objective, Array[Double], Int, Double)](
      ("quadratic", quadratic(Array(1.0, -2.0), Array(1.0, 1.0)), Array(0.0, 0.0), 100, 1e-6),
      ("ill-conditioned", quadratic(Array(3.0, -1.0, 0.5), Array(100.0, 1.0, 0.01)), Array(10.0, 10.0, 10.0), 300, 1e-6),
      ("rosenbrock", rosenbrock, Array(-1.2, 1.0), 500, 1e-7),
      ("separable logistic", separableLogistic(logisticDir), new Array[Double](8), 200, 1e-6),
      ("platt", Platt.objective(plattScores, plattLabels), Array(1.0, 0.0), 200, 1e-7),
    ) ++ Seq(1, 2, 5, 10, 50).map(cap =>
      (s"quadratic, cap $cap", quadratic(Array(5.0, 5.0), Array(2.0, 0.5)), Array(0.0, 0.0), cap, 1e-6))
    for ((name, f, x0, maxIters, gradTol) <- cases) {
      val got = LBFGS.minimize(f, x0, maxIters, gradTol)
      val want = Reference.lbfgsMinimize(f, x0, maxIters, gradTol)
      assert(sameBits(got, want), s"$name: $got vs $want")
      assert(got.evaluations >= got.iterations, name)
    }
  }

  test("evaluations count line trials; at(a) after phi(a) evaluates nothing more") {
    val f = new Counting(rosenbrock)
    val res = LBFGS.minimize(f, Array(-1.2, 1.0), maxIters = 500, gradTol = 1e-7)
    assert(res.evaluations > res.iterations)
    // One evaluation for x0 and one per trial, plus any collapsed zoom's
    // re-read of an earlier trial, which the pre-line code made every time.
    val ref = new Counting(rosenbrock)
    assert(res.evaluations == Reference.lbfgsMinimize(ref, Array(-1.2, 1.0), 500, 1e-7).evaluations)
    assert(f.calls >= res.evaluations + 1 && f.calls <= ref.calls)

    val g = new Counting(quadratic(Array(1.0, -2.0), Array(1.0, 3.0)))
    val p = g.point(Array(0.0, 0.0))
    val line = g.line(p, Array(1.0, -1.0))
    assert(g.calls == 1)
    val fa = line.phi(0.5)
    val slope = line.slope(0.5)
    val pa = line.at(0.5)
    assert(g.calls == 2)
    assert(pa.f == fa && pa.x.sameElements(Array(0.5, -0.5)))
    assert(slope == Linalg.dotDD(pa.g, Array(1.0, -1.0)))
    line.at(0.25)
    assert(g.calls == 3)
  }

  test("a line rejects a direction of the wrong length and a point of another objective") {
    val f = quadratic(Array(1.0, -2.0), Array(1.0, 1.0))
    val other = quadratic(Array(0.0, 0.0), Array(1.0, 1.0))
    val p = f.point(Array(0.0, 0.0))
    assertThrows[IllegalArgumentException](f.line(p, Array(1.0)))
    assertThrows[IllegalArgumentException](f.line(p, Array(1.0, 0.0, 0.0)))
    assertThrows[IllegalArgumentException](f.line(other.point(Array(0.0, 0.0)), Array(1.0, 0.0)))
  }
}
