package repro.core

import org.scalatest.funsuite.AnyFunSuite

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
    val rosenbrock: LBFGS.Objective = (x: Array[Double]) => {
      val a = 1.0; val b = 100.0
      val f = math.pow(a - x(0), 2) + b * math.pow(x(1) - x(0) * x(0), 2)
      val g0 = -2 * (a - x(0)) - 4 * b * x(0) * (x(1) - x(0) * x(0))
      val g1 = 2 * b * (x(1) - x(0) * x(0))
      (f, Array(g0, g1))
    }
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
    val dim = 8
    val u = Linalg.normalizeD(Linalg.toDouble(Rng.gaussianVector(99L, dim)))
    val xs = (0 until 40).map { i =>
      val sign = if (i % 2 == 0) 1.0 else -1.0
      val noise = Rng.gaussianVector(Rng.key(7, i), dim).map(_ * 0.05)
      val v = new Array[Double](dim)
      for (d <- 0 until dim) v(d) = sign * u(d) + noise(d)
      (v, i % 2 == 0)
    }
    val obj: LBFGS.Objective = (w: Array[Double]) => {
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
    val res = LBFGS.minimize(obj, new Array[Double](dim), maxIters = 200)
    val cos = Linalg.dotDD(Linalg.normalizeD(res.x), u)
    assert(cos > 0.99, s"cos $cos")
  }

  test("result is deterministic") {
    def run() = LBFGS.minimize(quadratic(Array(2.0, -1.0), Array(3.0, 0.5)), Array(9.0, -9.0))
    assert(run().x.sameElements(run().x))
  }
}
