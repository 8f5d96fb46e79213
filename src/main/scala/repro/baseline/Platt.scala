package repro.baseline

import repro.core.LBFGS

/** Platt scaling (Platt 2000): fit p(y=1|s) = sigmoid(A·s + B) on labeled
  * scores by regularized maximum likelihood. Used for the Table 4
  * calibration experiment (the calibrated ENS prior; the uncalibrated one is
  * `SearchSession.ensPrior`'s min-max normalization) — the paper stresses
  * this needs ground-truth labels ahead of time, so it is a diagnostic, not
  * a deployable method.
  */
final case class PlattModel(a: Double, b: Double) {
  def probability(score: Double): Double = {
    val z = a * score + b
    if (z >= 0) 1.0 / (1.0 + math.exp(-z)) else { val e = math.exp(z); e / (1.0 + e) }
  }
}

object Platt {

  /** L2 penalty on (A, B): keeps the fit finite when the data is separable. */
  private val Ridge = 1e-6

  /** The regularized negative log-likelihood of (A, B) and its gradient. */
  private[repro] def objective(scores: IndexedSeq[Double], labels: IndexedSeq[Boolean]): LBFGS.Objective =
    new LBFGS.Objective {
      override def valueAndGradient(x: Array[Double]): (Double, Array[Double]) = {
        val a = x(0); val b = x(1)
        var loss = Ridge * (a * a + b * b)
        var ga = 2 * Ridge * a; var gb = 2 * Ridge * b
        var i = 0
        while (i < scores.length) {
          val z = a * scores(i) + b
          val y = if (labels(i)) 1.0 else 0.0
          loss += (if (z > 0) z + math.log1p(math.exp(-z)) else math.log1p(math.exp(z))) - y * z
          val p = if (z >= 0) 1.0 / (1.0 + math.exp(-z)) else { val e = math.exp(z); e / (1.0 + e) }
          ga += (p - y) * scores(i)
          gb += (p - y)
          i += 1
        }
        (loss, Array(ga, gb))
      }
    }

  /** Fit (A, B) on (score, label) pairs. */
  def fit(scores: IndexedSeq[Double], labels: IndexedSeq[Boolean]): PlattModel = {
    require(scores.length == labels.length, "scores/labels length mismatch")
    require(scores.nonEmpty, "cannot calibrate on no data")
    val res = LBFGS.minimize(objective(scores, labels), Array(1.0, 0.0), maxIters = 200, gradTol = 1e-7)
    PlattModel(res.x(0), res.x(1))
  }
}
