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

  // The examples packed once, row-major n × dim, and q₀, as doubles: the
  // float → double widening is exact, so every product keeps its bits.
  private val n = examples.length
  private val xs: Array[Double] = {
    val a = new Array[Double](n * dim)
    var i = 0
    while (i < n) {
      val v = examples(i).vec
      var d = 0
      while (d < dim) { a(i * dim + d) = v(d); d += 1 }
      i += 1
    }
    a
  }
  private val ys: Array[Double] = examples.map(e => if (e.positive) 1.0 else 0.0).toArray
  private val q0d: Array[Double] = Linalg.toDouble(q0)

  /** Example `i`'s logistic loss log(1+e^z) − y z, stored in `terms(i)`, and
    * its gradient coefficient (σ(z) − y)·s, returned. Both functions share
    * one e^−|z|, the value each of their numerically stable branches used.
    */
  private def logistic(i: Int, z: Double, terms: Array[Double]): Double = {
    val y = ys(i)
    val e = math.exp(-math.abs(z))
    terms(i) = (if (z > 0) z + math.log1p(e) else math.log1p(e)) - y * z
    ((if (z >= 0) 1.0 / (1.0 + e) else e / (1.0 + e)) - y) * FeatureScale
  }

  /** L(w) and ∇L(w). Each sum runs in one fixed order (logits in `d` order,
    * the loss and every gradient entry in example order, M_D·w row by row
    * in column order), and independent sums run as separate chains, so the
    * result is that of summing one term at a time.
    */
  override def valueAndGradient(w: Array[Double]): (Double, Array[Double]) = {
    require(w.length == dim, s"dim mismatch ${w.length} vs $dim")
    val grad = new Array[Double](dim)
    val terms = new Array[Double](n)

    // Logistic loss with scaled logits z = s(w·x):
    // Σ log(1+e^z) − y z; grad Σ (σ(z) − y) s x. Four examples per pass.
    var i = 0
    while (i + 4 <= n) {
      val o0 = i * dim; val o1 = o0 + dim; val o2 = o1 + dim; val o3 = o2 + dim
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var d = 0
      while (d < dim) {
        val wd = w(d)
        s0 += wd * xs(o0 + d); s1 += wd * xs(o1 + d); s2 += wd * xs(o2 + d); s3 += wd * xs(o3 + d)
        d += 1
      }
      val c0 = logistic(i, FeatureScale * s0, terms)
      val c1 = logistic(i + 1, FeatureScale * s1, terms)
      val c2 = logistic(i + 2, FeatureScale * s2, terms)
      val c3 = logistic(i + 3, FeatureScale * s3, terms)
      d = 0
      while (d < dim) {
        grad(d) = grad(d) + c0 * xs(o0 + d) + c1 * xs(o1 + d) + c2 * xs(o2 + d) + c3 * xs(o3 + d)
        d += 1
      }
      i += 4
    }
    while (i < n) {
      val o = i * dim
      var s = 0.0
      var d = 0
      while (d < dim) { s += w(d) * xs(o + d); d += 1 }
      val c = logistic(i, FeatureScale * s, terms)
      d = 0
      while (d < dim) { grad(d) += c * xs(o + d); d += 1 }
      i += 1
    }

    var loss = 0.0
    i = 0
    while (i < n) { loss += terms(i); i += 1 }

    // |w|² and w·q₀ in one pass.
    var ww = 0.0; var wq = 0.0
    var d = 0
    while (d < dim) { ww += w(d) * w(d); wq += w(d) * q0d(d); d += 1 }
    val mw = if (lambdaD > 0) mD.get.matVec(w) else null
    val wmw = if (lambdaD > 0) Linalg.dotDD(w, mw) else 0.0

    // λ|w|²
    val nw2 = math.max(ww, MinNorm * MinNorm)
    val nw = math.sqrt(nw2)
    loss += lambda * nw2
    // λ_c (1 − w·q₀/|w|); ∇ = −λ_c (q₀/|w| − (w·q₀) w/|w|³)
    if (lambdaC > 0) loss += lambdaC * (1.0 - wq / nw)
    // λ_D (wᵀMw)/|w|²; ∇ = λ_D (2Mw/|w|² − 2(wᵀMw) w/|w|⁴)
    if (lambdaD > 0) loss += lambdaD * wmw / nw2

    // The three penalties' gradients, added to each entry in that order.
    val twoLambda = 2.0 * lambda
    val nw3 = nw2 * nw; val nw4 = nw2 * nw2; val twoWmw = 2.0 * wmw
    d = 0
    while (d < dim) {
      var g = grad(d) + twoLambda * w(d)
      if (lambdaC > 0) g += -lambdaC * (q0d(d) / nw - wq * w(d) / nw3)
      if (lambdaD > 0) g += lambdaD * (2.0 * mw(d) / nw2 - twoWmw * w(d) / nw4)
      grad(d) = g
      d += 1
    }

    (loss, grad)
  }
}
