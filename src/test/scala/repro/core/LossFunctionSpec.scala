package repro.core

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
}
