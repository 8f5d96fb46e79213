package repro.core

import repro.graph.DbAlignMatrix

/** A labeled feedback example: a patch embedding and its relevance. */
final case class Example(vec: Array[Float], positive: Boolean)

object LossFunction {
  /** Logit scale equivalent to raw CLIP embedding norms (see class doc). */
  val FeatureScale = 10.0
}

/** The SeeSaw query-alignment loss (paper Eq. 1–3, Table 1):
  *
  *   L(w) =   Σ_i LogLoss(y_i, sigmoid(w·x_i))        (few-shot term, Eq. 1)
  *          + λ |w|²                                   (norm penalty, Eq. 1)
  *          + λ_c (1 − w·q₀ / |w|)                     (CLIP alignment, Eq. 2)
  *          + λ_D (wᵀ M_D w) / |w|²                    (DB alignment, Eq. 3)
  *
  * No bias term — the paper found fitting `b` hurts the learned query
  * (§3.2). Setting λ_c = λ_D = 0 recovers the few-shot CLIP baseline;
  * λ_D = 0 is "query alignment" alone. Cost is O(|feedback|·dim + dim²),
  * independent of database size — the paper's interactivity requirement.
  *
  * `FeatureScale` multiplies the logits (w·x): raw CLIP image embeddings
  * have norms of ~10–30 and the aligner trains on them directly (retrieval
  * normalizes separately), so the logistic terms actually saturate. Our
  * synthetic embeddings are unit-norm; the scale restores the equivalent
  * logit range so λ=100, λ_c=10, λ_D=1000 calibrate as in the paper.
  */
final class LossFunction(
    q0: Array[Float],
    examples: IndexedSeq[Example],
    lambda: Double,
    lambdaC: Double,
    lambdaD: Double,
    mD: Option[DbAlignMatrix],
) extends LBFGS.Objective {
  import LossFunction.FeatureScale
  require(lambda >= 0 && lambdaC >= 0 && lambdaD >= 0, "penalties must be non-negative")
  require(lambdaD == 0 || mD.isDefined, "λ_D > 0 requires an M_D matrix")
  require(mD.forall(_.dim == q0.length), "M_D dimension mismatch")
  require(examples.forall(_.vec.length == q0.length), "example dimension mismatch")

  private val dim = q0.length
  private val MinNorm = 1e-8

  private def sigmoid(z: Double): Double =
    if (z >= 0) 1.0 / (1.0 + math.exp(-z)) else { val e = math.exp(z); e / (1.0 + e) }

  /** Numerically-stable log(1 + e^z). */
  private def log1pExp(z: Double): Double =
    if (z > 0) z + math.log1p(math.exp(-z)) else math.log1p(math.exp(z))

  override def valueAndGradient(w: Array[Double]): (Double, Array[Double]) = {
    var loss = 0.0
    val grad = new Array[Double](dim)

    // Logistic loss with scaled logits z = s(w·x):
    // Σ log(1+e^z) − y z; grad Σ (σ(z) − y) s x.
    var i = 0
    while (i < examples.length) {
      val ex = examples(i)
      val z = FeatureScale * Linalg.dotDF(w, ex.vec)
      val y = if (ex.positive) 1.0 else 0.0
      loss += log1pExp(z) - y * z
      val coeff = (sigmoid(z) - y) * FeatureScale
      var d = 0
      while (d < dim) { grad(d) += coeff * ex.vec(d); d += 1 }
      i += 1
    }

    // λ|w|²
    val nw2 = math.max(Linalg.dotDD(w, w), MinNorm * MinNorm)
    val nw = math.sqrt(nw2)
    loss += lambda * nw2
    Linalg.axpyD(2.0 * lambda, w, grad)

    // λ_c (1 − w·q₀/|w|); ∇ = −λ_c (q₀/|w| − (w·q₀) w/|w|³)
    if (lambdaC > 0) {
      val wq = Linalg.dotDF(w, q0)
      loss += lambdaC * (1.0 - wq / nw)
      var d = 0
      while (d < dim) {
        grad(d) += -lambdaC * (q0(d) / nw - wq * w(d) / (nw2 * nw))
        d += 1
      }
    }

    // λ_D (wᵀMw)/|w|²; ∇ = λ_D (2Mw/|w|² − 2(wᵀMw) w/|w|⁴)
    if (lambdaD > 0) {
      val mat = mD.get
      val mw = mat.matVec(w)
      val wmw = Linalg.dotDD(w, mw)
      loss += lambdaD * wmw / nw2
      var d = 0
      while (d < dim) {
        grad(d) += lambdaD * (2.0 * mw(d) / nw2 - 2.0 * wmw * w(d) / (nw2 * nw2))
        d += 1
      }
    }

    (loss, grad)
  }
}
