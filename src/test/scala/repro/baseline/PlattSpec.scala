package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rng

class PlattSpec extends AnyFunSuite {

  private def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  private def synthetic(a: Double, b: Double, n: Int, seed: Long): (IndexedSeq[Double], IndexedSeq[Boolean]) = {
    val scores = (0 until n).map(i => Rng.uniform(Rng.key(seed, i), -1.0, 1.0))
    val labels = scores.zipWithIndex.map { case (s, i) =>
      Rng.uniform(Rng.key(seed, i, 1L)) < sigmoid(a * s + b)
    }
    (scores, labels)
  }

  test("recovers known sigmoid parameters approximately") {
    val (scores, labels) = synthetic(a = 4.0, b = -1.0, n = 4000, seed = 1)
    val m = Platt.fit(scores, labels)
    assert(math.abs(m.a - 4.0) < 0.8, s"a=${m.a}")
    assert(math.abs(m.b + 1.0) < 0.4, s"b=${m.b}")
  }

  test("probabilities are in [0,1] and monotone in the score when a>0") {
    val (scores, labels) = synthetic(3.0, 0.0, 1000, 2)
    val m = Platt.fit(scores, labels)
    assert(m.a > 0)
    val ps = Seq(-1.0, -0.5, 0.0, 0.5, 1.0).map(m.probability)
    ps.foreach(p => assert(p >= 0 && p <= 1))
    ps.sliding(2).foreach { case Seq(x, y) => assert(y >= x); case _ => () }
  }

  test("calibration beats the raw mapping in log loss on skewed data") {
    // Rare positives (base rate ~5%): the raw (s+1)/2 mapping is badly
    // calibrated; Platt should fit the low base rate.
    val n = 3000
    val scores = (0 until n).map(i => Rng.uniform(Rng.key(3, i), -0.2, 0.6))
    val labels = scores.zipWithIndex.map { case (s, i) =>
      Rng.uniform(Rng.key(3, i, 1L)) < 0.05 * sigmoid(8 * s)
    }
    val m = Platt.fit(scores, labels)
    def logLoss(p: Double, y: Boolean): Double = {
      val pc = math.min(1 - 1e-12, math.max(1e-12, p))
      if (y) -math.log(pc) else -math.log(1 - pc)
    }
    val calLoss = scores.zip(labels).map { case (s, y) => logLoss(m.probability(s), y) }.sum / n
    def raw(s: Double): Double = math.min(1.0, math.max(0.0, (s + 1.0) / 2.0))
    val rawLoss = scores.zip(labels).map { case (s, y) => logLoss(raw(s), y) }.sum / n
    assert(calLoss < rawLoss, s"cal $calLoss raw $rawLoss")
  }

  test("calibrated mean probability matches the base rate") {
    val (scores, labels) = synthetic(2.0, -2.0, 3000, 4)
    val m = Platt.fit(scores, labels)
    val meanP = scores.map(m.probability).sum / scores.size
    val baseRate = labels.count(identity).toDouble / labels.size
    assert(math.abs(meanP - baseRate) < 0.03, s"meanP $meanP baseRate $baseRate")
  }

  test("separable data stays finite thanks to the ridge") {
    val scores = IndexedSeq(-1.0, -0.9, 0.9, 1.0)
    val labels = IndexedSeq(false, false, true, true)
    val m = Platt.fit(scores, labels)
    assert(!m.a.isNaN && !m.a.isInfinite)
    assert(m.probability(1.0) > 0.5 && m.probability(-1.0) < 0.5)
  }

  test("input validation") {
    assertThrows[IllegalArgumentException](Platt.fit(IndexedSeq(1.0), IndexedSeq.empty))
    assertThrows[IllegalArgumentException](Platt.fit(IndexedSeq.empty, IndexedSeq.empty))
  }

  test("fit is deterministic") {
    val (scores, labels) = synthetic(1.5, 0.5, 500, 5)
    assert(Platt.fit(scores, labels) == Platt.fit(scores, labels))
  }
}
