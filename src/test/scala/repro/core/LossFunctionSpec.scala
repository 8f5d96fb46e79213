package repro.core

import java.lang.Double.doubleToRawLongBits

import org.scalatest.funsuite.AnyFunSuite
import repro.Reference
import repro.graph.DbAlignMatrix

class LossFunctionSpec extends AnyFunSuite {

  private val Dim = 12

  private def unit(seed: Long): Array[Float] =
    Linalg.normalize(Rng.gaussianVector(seed, Dim))

  private def randomExamples(n: Int, seed: Long): IndexedSeq[Example] =
    (0 until n).map(i => Example(unit(Rng.key(seed, i)), Rng.uniform(Rng.key(seed, i, 1L)) < 0.5))

  /** Simple PSD matrix: sum of random outer products, trace-normalized. */
  private def psdMatrix(seed: Long): DbAlignMatrix = {
    val m = new Array[Double](Dim * Dim)
    for (i <- 0 until 5)
      Linalg.addOuter(m, Dim, 1.0, Linalg.toDouble(Rng.gaussianVector(Rng.key(seed, i), Dim)))
    var tr = 0.0
    for (d <- 0 until Dim) tr += m(d * Dim + d)
    DbAlignMatrix(Dim, Linalg.scale(Dim / tr, m))
  }

  /** Central-difference gradient check. */
  private def checkGradient(f: LBFGS.Objective, x: Array[Double], tol: Double = 1e-5): Unit = {
    val (_, g) = f.valueAndGradient(x)
    val h = 1e-6
    for (d <- x.indices) {
      val xp = x.clone(); xp(d) += h
      val xm = x.clone(); xm(d) -= h
      val num = (f.valueAndGradient(xp)._1 - f.valueAndGradient(xm)._1) / (2 * h)
      assert(math.abs(num - g(d)) < tol * math.max(1.0, math.abs(num)),
        s"dim $d: numeric $num vs analytic ${g(d)}")
    }
  }

  test("gradient check: few-shot loss (logloss + L2)") {
    val loss = new LossFunction(unit(1), randomExamples(8, 2), lambda = 3.0,
      lambdaC = 0, lambdaD = 0, mD = None)
    for (s <- 0 until 5)
      checkGradient(loss, Linalg.toDouble(Rng.gaussianVector(Rng.key(50, s), Dim)))
  }

  test("gradient check: CLIP-alignment term") {
    val loss = new LossFunction(unit(1), randomExamples(5, 3), lambda = 1.0,
      lambdaC = 7.0, lambdaD = 0, mD = None)
    for (s <- 0 until 5)
      checkGradient(loss, Linalg.toDouble(Rng.gaussianVector(Rng.key(51, s), Dim)))
  }

  test("gradient check: DB-alignment term") {
    val loss = new LossFunction(unit(1), randomExamples(5, 4), lambda = 1.0,
      lambdaC = 0, lambdaD = 5.0, mD = Some(psdMatrix(9)))
    for (s <- 0 until 5)
      checkGradient(loss, Linalg.toDouble(Rng.gaussianVector(Rng.key(52, s), Dim)))
  }

  test("gradient check: full SeeSaw loss") {
    val loss = new LossFunction(unit(1), randomExamples(10, 5), lambda = 2.0,
      lambdaC = 4.0, lambdaD = 3.0, mD = Some(psdMatrix(10)))
    for (s <- 0 until 5)
      checkGradient(loss, Linalg.toDouble(Rng.gaussianVector(Rng.key(53, s), Dim)))
  }

  test("with no examples and only the CLIP term, q0 direction is a minimizer") {
    val q0 = unit(21)
    val loss = new LossFunction(q0, IndexedSeq.empty, lambda = 0.0,
      lambdaC = 5.0, lambdaD = 0, mD = None)
    val atQ0 = loss.valueAndGradient(Linalg.toDouble(q0))._1
    for (s <- 0 until 20) {
      val other = Linalg.toDouble(unit(Rng.key(60, s)))
      assert(loss.valueAndGradient(other)._1 >= atQ0 - 1e-9)
    }
    // Cosine distance to itself is 0 up to float32 normalization error.
    assert(math.abs(atQ0) < 1e-6)
  }

  test("CLIP term is scale-invariant in w") {
    val q0 = unit(31)
    val loss = new LossFunction(q0, IndexedSeq.empty, lambda = 0.0,
      lambdaC = 3.0, lambdaD = 0, mD = None)
    val w = Linalg.toDouble(unit(32))
    val v1 = loss.valueAndGradient(w)._1
    val v2 = loss.valueAndGradient(Linalg.scale(7.5, w))._1
    assert(math.abs(v1 - v2) < 1e-9)
  }

  test("DB term is scale-invariant in w") {
    val loss = new LossFunction(unit(41), IndexedSeq.empty, lambda = 0.0,
      lambdaC = 0.0, lambdaD = 2.0, mD = Some(psdMatrix(42)))
    val w = Linalg.toDouble(unit(43))
    val v1 = loss.valueAndGradient(w)._1
    val v2 = loss.valueAndGradient(Linalg.scale(0.1, w))._1
    assert(math.abs(v1 - v2) < 1e-9)
  }

  test("DB term is non-negative (PSD quadratic over norm)") {
    val loss = new LossFunction(unit(44), IndexedSeq.empty, lambda = 0.0,
      lambdaC = 0.0, lambdaD = 1.0, mD = Some(psdMatrix(45)))
    for (s <- 0 until 30)
      assert(loss.valueAndGradient(Linalg.toDouble(unit(Rng.key(70, s))))._1 >= -1e-12)
  }

  test("logloss decreases when w aligns with a positive example") {
    val x = unit(81)
    val ex = IndexedSeq(Example(x, positive = true))
    val loss = new LossFunction(unit(82), ex, lambda = 0.0, lambdaC = 0.0, lambdaD = 0, mD = None)
    val aligned = loss.valueAndGradient(Linalg.scale(3.0, Linalg.toDouble(x)))._1
    val anti = loss.valueAndGradient(Linalg.scale(-3.0, Linalg.toDouble(x)))._1
    assert(aligned < anti)
  }

  test("λ_D > 0 without M_D is rejected") {
    assertThrows[IllegalArgumentException] {
      new LossFunction(unit(1), IndexedSeq.empty, 1.0, 1.0, 1.0, None)
    }
  }

  test("dimension mismatches are rejected") {
    val bad = Example(Rng.gaussianVector(1L, Dim + 1), positive = true)
    assertThrows[IllegalArgumentException] {
      new LossFunction(unit(1), IndexedSeq(bad), 1.0, 0.0, 0.0, None)
    }
  }

  test("negative penalties are rejected") {
    assertThrows[IllegalArgumentException] {
      new LossFunction(unit(1), IndexedSeq.empty, -1.0, 0.0, 0.0, None)
    }
  }

  test("value and gradient equal the one-term-at-a-time reference bit for bit") {
    import java.lang.Double.doubleToRawLongBits
    for (dim <- Seq(1, 3, 13, 64, 128)) {
      def unitD(seed: Long): Array[Float] = Linalg.normalize(Rng.gaussianVector(seed, dim))
      val mD = {
        val m = new Array[Double](dim * dim)
        for (i <- 0 until 5) Linalg.addOuter(m, dim, 1.0, Linalg.toDouble(Rng.gaussianVector(Rng.key(90, dim.toLong, i.toLong), dim)))
        DbAlignMatrix(dim, Linalg.scale(dim * 1e-3 / (0 until dim).map(d => m(d * dim + d)).sum, m))
      }
      val q0 = unitD(Rng.key(91, dim.toLong))
      // Random w, huge logits, every logit 0, and |w| about MinNorm.
      val u = Linalg.toDouble(unitD(Rng.key(92, dim.toLong)))
      val ws = Seq(Linalg.toDouble(Rng.gaussianVector(Rng.key(93, dim.toLong), dim)), u, Linalg.scale(1e6, u),
        Linalg.scale(-1e6, u), new Array[Double](dim), Linalg.scale(1e-8, u), Linalg.scale(0.5e-8, u),
        Linalg.scale(2e-8, u))
      for (n <- 0 to 9) {
        // Example 2 is the zero vector: its logit is 0 for every w.
        val examples = (0 until n).map { i =>
          val v = if (i == 2) new Array[Float](dim) else unitD(Rng.key(94, dim.toLong, i.toLong))
          Example(v, Rng.uniform(Rng.key(95, dim.toLong, i.toLong)) < 0.5)
        }
        for (cfg <- Seq(AlignerConfig.FewShot, AlignerConfig.QueryAlign, AlignerConfig.SeeSaw); (w, wi) <- ws.zipWithIndex) {
          val m = if (cfg.lambdaD > 0) Some(mD) else None
          val (v, g) = new LossFunction(q0, examples, cfg.lambda, cfg.lambdaC, cfg.lambdaD, m).valueAndGradient(w)
          val (rv, rg) = Reference.lossValueAndGradient(q0, examples, cfg.lambda, cfg.lambdaC, cfg.lambdaD, m, w)
          val clue = s"dim $dim n $n $cfg w $wi"
          assert(doubleToRawLongBits(v) == doubleToRawLongBits(rv), clue)
          assert(g.map(doubleToRawLongBits).sameElements(rg.map(doubleToRawLongBits)), clue)
        }
      }
    }
  }

  private val Configs = Seq(AlignerConfig.FewShot, AlignerConfig.QueryAlign, AlignerConfig.SeeSaw)

  private def lossFor(cfg: AlignerConfig, q0: Array[Float], examples: IndexedSeq[Example]): LossFunction =
    new LossFunction(q0, examples, cfg.lambda, cfg.lambdaC, cfg.lambdaD, if (cfg.lambdaD > 0) Some(psdMatrix(46)) else None)

  /** |got − want| within `tol` of `scale`, the size of what was summed. */
  private def assertClose(got: Double, want: Double, scale: Double, clue: => String, tol: Double = 1e-10): Unit =
    assert(math.abs(got - want) <= tol * math.max(1.0, scale), s"$clue: $got vs $want")

  /** Keeps the loss's own point and line and remembers the last point made. */
  private final class LastPoint(loss: LossFunction) extends LBFGS.Objective {
    var last: LBFGS.Point = _
    override def valueAndGradient(x: Array[Double]): (Double, Array[Double]) = loss.valueAndGradient(x)
    override def point(x: Array[Double]): LBFGS.Point = { last = loss.point(x); last }
    override def line(p: LBFGS.Point, d: Array[Double]): LBFGS.Line = {
      val l = loss.line(p, d)
      new LBFGS.Line {
        override def phi(a: Double): Double = l.phi(a)
        override def slope(a: Double): Double = l.slope(a)
        override def at(a: Double): LBFGS.Point = { last = l.at(a); last }
      }
    }
  }

  test("the projected line agrees with full evaluations at x + a·d") {
    val q0 = unit(101)
    val u = unit(102)
    val ud = Linalg.toDouble(u)
    val rnd = Linalg.toDouble(Rng.gaussianVector(103, Dim))
    // A random line; one whose logit on example 0 (= u) starts at 50; and
    // one that starts below MinNorm = 1e-8 and stays there for a ≤ 1.
    val lines = Seq(
      ("random", Linalg.toDouble(Rng.gaussianVector(104, Dim)), rnd),
      ("saturated", Linalg.scale(5.0, ud), Linalg.scale(0.1, rnd)),
      ("near zero", Linalg.scale(0.5e-8, ud), Linalg.scale(1e-9, rnd)))
    assert(LossFunction.FeatureScale * Linalg.dotDD(lines(1)._2, ud) > 40)
    assert(Linalg.normD(lines(2)._2) < 1e-8 && Linalg.normD(lines(2)._2) + Linalg.normD(lines(2)._3) < 1e-8)
    for (n <- Seq(1, 3, 4, 5, 67); cfg <- Configs; (name, x, d) <- lines; a <- Seq(0.0, 1e-12, 1.0, 1e3)) {
      val clue = s"n $n $cfg $name a $a"
      val loss = lossFor(cfg, q0, Example(u, positive = false) +: randomExamples(n - 1, 105))
      val line = loss.line(loss.point(x.clone()), d)
      val xa = x.clone()
      Linalg.axpyD(a, d, xa)
      val (f, g) = loss.valueAndGradient(xa)
      val slopeScale = g.indices.map(j => math.abs(g(j) * d(j))).sum
      val gScale = g.map(math.abs).max
      val phi = line.phi(a)
      assertClose(phi, f, math.abs(f), s"$clue phi")
      assertClose(line.slope(a), Linalg.dotDD(g, d), slopeScale, s"$clue slope")
      val pa = line.at(a)
      assert(pa.x.map(doubleToRawLongBits).sameElements(xa.map(doubleToRawLongBits)), clue)
      assert(doubleToRawLongBits(pa.f) == doubleToRawLongBits(phi), s"$clue: at(a) re-reads phi(a)'s value")
      for (j <- g.indices) assertClose(pa.g(j), g(j), gScale, s"$clue g($j)")
      // A fresh line's at(a) with no trial before it is the same point.
      val again = loss.line(loss.point(x.clone()), d).at(a)
      assert(doubleToRawLongBits(again.f) == doubleToRawLongBits(pa.f), clue)
      assert(again.g.map(doubleToRawLongBits).sameElements(pa.g.map(doubleToRawLongBits)), clue)
    }
  }

  test("after an 80-iteration solve the carried point matches a fresh evaluation") {
    for (cfg <- Configs) {
      val q0 = unit(111)
      val loss = lossFor(cfg, q0, randomExamples(67, 112))
      val tracked = new LastPoint(loss)
      val res = LBFGS.minimize(tracked, Linalg.toDouble(q0), maxIters = 80, gradTol = 0.0)
      // Without λ_D the solve stalls at rounding level in under 20
      // iterations; SeeSaw's runs all 80.
      if (cfg == AlignerConfig.SeeSaw) assert(res.iterations == 80)
      val last = tracked.last
      assert(res.x eq last.x, s"$cfg")
      val (f, g) = loss.valueAndGradient(last.x)
      assertClose(last.f, f, math.abs(f), s"$cfg f", tol = 1e-9)
      for (j <- g.indices) assertClose(last.g(j), g(j), g.map(math.abs).max, s"$cfg g($j)", tol = 1e-9)
    }
  }

  test("a loss wrapped to keep the full-evaluation line solves bit-identically to the pre-line L-BFGS") {
    for (cfg <- Configs; seed <- 0 until 4) {
      val q0 = unit(Rng.key(120, seed))
      val loss = lossFor(cfg, q0, randomExamples(5 + 20 * seed, Rng.key(121, seed)))
      val wrapped: LBFGS.Objective = (w: Array[Double]) => loss.valueAndGradient(w)
      val x0 = Linalg.toDouble(q0)
      val got = LBFGS.minimize(wrapped, x0, maxIters = 80, gradTol = 1e-5)
      val want = Reference.lbfgsMinimize(wrapped, x0, maxIters = 80, gradTol = 1e-5)
      val clue = s"$cfg seed $seed: $got vs $want"
      assert(got.x.map(doubleToRawLongBits).sameElements(want.x.map(doubleToRawLongBits)), clue)
      assert(doubleToRawLongBits(got.value) == doubleToRawLongBits(want.value), clue)
      assert(got.iterations == want.iterations && got.evaluations == want.evaluations, clue)
      assert(got.converged == want.converged, clue)
      // Where the full line converges, the projected line reaches the same
      // minimizer to rounding.
      if (got.converged) {
        val projected = LBFGS.minimize(loss, x0, maxIters = 80, gradTol = 1e-5)
        assert(projected.converged, clue)
        for (j <- x0.indices) assertClose(projected.x(j), got.x(j), Linalg.normD(got.x), s"$clue x($j)", tol = 1e-6)
      }
    }
  }

  test("a loss line rejects a wrong-length direction and a point the loss did not make") {
    val q0 = unit(131)
    val loss = lossFor(AlignerConfig.SeeSaw, q0, randomExamples(6, 132))
    val other = lossFor(AlignerConfig.SeeSaw, q0, randomExamples(6, 132))
    val x = Linalg.toDouble(q0)
    val d = Linalg.toDouble(unit(133))
    val p = loss.point(x)
    assertThrows[IllegalArgumentException](loss.line(p, Array(1.0)))
    assertThrows[IllegalArgumentException](loss.line(p, new Array[Double](Dim + 1)))
    assertThrows[IllegalArgumentException](loss.line(other.point(x), d))
    assertThrows[IllegalArgumentException](loss.line(new LBFGS.Point(loss, x, p.f, p.g), d))
    assert(loss.line(p, d).phi(0.0).isFinite)
  }
}
