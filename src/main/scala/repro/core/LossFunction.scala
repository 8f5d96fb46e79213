package repro.core

import repro.graph.DbAlignMatrix

/** A labeled feedback example: a patch embedding and its relevance. */
final case class Example(vec: Array[Float], positive: Boolean)

object LossFunction {
  /** Logit scale equivalent to raw CLIP embedding norms (see class doc). */
  val FeatureScale = 10.0

  /** A point with its logits' dot products u = X·x and M_D·x (null when
    * λ_D = 0), which the lines from it extend instead of recomputing.
    */
  private final class LossPoint(loss: LossFunction, x: Array[Double], f: Double, g: Array[Double],
      val u: Array[Double], val mx: Array[Double]) extends LBFGS.Point(loss, x, f, g)

  /** The examples' vectors as doubles, row-major n × dim. This loop is a
    * method of its own, not a field initializer: there `this` sits on the
    * JVM operand stack at the loop, so the JIT cannot compile the loop on
    * stack, and every constructor call packs interpreted until the whole
    * constructor has been compiled.
    */
  private def pack(examples: IndexedSeq[Example], dim: Int): Array[Double] = {
    val n = examples.length
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
  * independent of database size — the paper's interactivity requirement;
  * a line-search trial along a fixed direction costs O(|feedback|).
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
  import LossFunction.{FeatureScale, LossPoint, pack}
  require(lambda >= 0 && lambdaC >= 0 && lambdaD >= 0, "penalties must be non-negative")
  require(lambdaD == 0 || mD.isDefined, "λ_D > 0 requires an M_D matrix")
  require(mD.forall(_.dim == q0.length), "M_D dimension mismatch")
  require(examples.forall(_.vec.length == q0.length), "example dimension mismatch")

  private val dim = q0.length
  private val MinNorm = 1e-8

  // The examples packed once, row-major n × dim, and q₀, as doubles: the
  // float → double widening is exact, so every product keeps its bits.
  private val n = examples.length
  private val xs: Array[Double] = pack(examples, dim)
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

  /** out(i) = Σ_d w(d)·x_i(d), four examples per pass, each summed in `d` order. */
  private def project(w: Array[Double], out: Array[Double]): Unit = {
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
      out(i) = s0; out(i + 1) = s1; out(i + 2) = s2; out(i + 3) = s3
      i += 4
    }
    while (i < n) {
      val o = i * dim
      var s = 0.0
      var d = 0
      while (d < dim) { s += w(d) * xs(o + d); d += 1 }
      out(i) = s
      i += 1
    }
  }

  /** grad += Xᵀc: four examples per pass, each entry adding them as
    * `((g + c0·x0) + c1·x1) + …`, which is example order.
    */
  private def addXtc(c: Array[Double], grad: Array[Double]): Unit = {
    var i = 0
    while (i + 4 <= n) {
      val o0 = i * dim; val o1 = o0 + dim; val o2 = o1 + dim; val o3 = o2 + dim
      val c0 = c(i); val c1 = c(i + 1); val c2 = c(i + 2); val c3 = c(i + 3)
      var d = 0
      while (d < dim) {
        grad(d) = grad(d) + c0 * xs(o0 + d) + c1 * xs(o1 + d) + c2 * xs(o2 + d) + c3 * xs(o3 + d)
        d += 1
      }
      i += 4
    }
    while (i < n) {
      val o = i * dim
      val ci = c(i)
      var d = 0
      while (d < dim) { grad(d) += ci * xs(o + d); d += 1 }
      i += 1
    }
  }

  /** `loss` plus the three penalties at |w|² = ww, w·q₀ = wq and
    * wᵀM_D w = wmw, added in the order norm, CLIP, DB.
    */
  private def addPenalties(loss0: Double, ww: Double, wq: Double, wmw: Double): Double = {
    val nw2 = math.max(ww, MinNorm * MinNorm)
    val nw = math.sqrt(nw2)
    // λ|w|²
    var loss = loss0 + lambda * nw2
    // λ_c (1 − w·q₀/|w|); ∇ = −λ_c (q₀/|w| − (w·q₀) w/|w|³)
    if (lambdaC > 0) loss += lambdaC * (1.0 - wq / nw)
    // λ_D (wᵀMw)/|w|²; ∇ = λ_D (2Mw/|w|² − 2(wᵀMw) w/|w|⁴)
    if (lambdaD > 0) loss += lambdaD * wmw / nw2
    loss
  }

  /** The three penalties' gradients at w (with M_D·w = mw), added to each
    * entry of `grad` in that order.
    */
  private def addPenaltyGradient(grad: Array[Double], w: Array[Double], mw: Array[Double], ww: Double,
      wq: Double, wmw: Double): Unit = {
    val nw2 = math.max(ww, MinNorm * MinNorm)
    val nw = math.sqrt(nw2)
    val twoLambda = 2.0 * lambda
    val nw3 = nw2 * nw; val nw4 = nw2 * nw2; val twoWmw = 2.0 * wmw
    var d = 0
    while (d < dim) {
      var g = grad(d) + twoLambda * w(d)
      if (lambdaC > 0) g += -lambdaC * (q0d(d) / nw - wq * w(d) / nw3)
      if (lambdaD > 0) g += lambdaD * (2.0 * mw(d) / nw2 - twoWmw * w(d) / nw4)
      grad(d) = g
      d += 1
    }
  }

  /** L(w) and ∇L(w). Each sum runs in one fixed order (logits in `d` order,
    * the loss and every gradient entry in example order, M_D·w row by row
    * in column order), and independent sums run as separate chains, so the
    * result is that of summing one term at a time.
    */
  override def valueAndGradient(w: Array[Double]): (Double, Array[Double]) = {
    val p = point(w)
    (p.f, p.g)
  }

  override def point(w: Array[Double]): LBFGS.Point = {
    require(w.length == dim, s"dim mismatch ${w.length} vs $dim")
    // Logistic loss with scaled logits z = s(w·x):
    // Σ log(1+e^z) − y z; grad Σ (σ(z) − y) s x.
    val u = new Array[Double](n)
    project(w, u)
    val terms = new Array[Double](n)
    val c = new Array[Double](n)
    var i = 0
    while (i < n) { c(i) = logistic(i, FeatureScale * u(i), terms); i += 1 }
    val grad = new Array[Double](dim)
    addXtc(c, grad)

    var loss = 0.0
    i = 0
    while (i < n) { loss += terms(i); i += 1 }

    // |w|² and w·q₀ in one pass.
    var ww = 0.0; var wq = 0.0
    var d = 0
    while (d < dim) { ww += w(d) * w(d); wq += w(d) * q0d(d); d += 1 }
    val mw = if (lambdaD > 0) mD.get.matVec(w) else null
    val wmw = if (lambdaD > 0) Linalg.dotDD(w, mw) else 0.0

    loss = addPenalties(loss, ww, wq, wmw)
    addPenaltyGradient(grad, w, mw, ww, wq, wmw)
    new LossPoint(this, w, loss, grad, u, mw)
  }

  /** The loss along x + a·d from logits that are affine in a. */
  override def line(p: LBFGS.Point, d: Array[Double]): LBFGS.Line = {
    checkLine(p, d)
    p match {
      case lp: LossPoint => new ProjectedLine(lp, d)
      case _ => throw new IllegalArgumentException("a loss line must start at a point the loss made")
    }
  }

  /** Along w(a) = x + a·d the logits are s·(u + a·v) with v = X·d, and |w|²,
    * w·q₀ and wᵀM_D w are polynomials in a of degree at most two. One X·d
    * and one M_D·d per line make each trial O(examples). The accepted point
    * costs one Xᵀc pass, and carries u + a·v and M_D·x + a·M_D·d forward.
    * These are the full evaluation's sums in another order, so trials and
    * points agree with `point(x + a·d)` to rounding, not bit for bit.
    */
  private final class ProjectedLine(p: LossPoint, d: Array[Double]) extends LBFGS.Line {
    private val x = p.x
    private val v = new Array[Double](n)
    project(d, v)
    private val md = if (lambdaD > 0) mD.get.matVec(d) else null
    // The polynomials' coefficients: x·x, x·d, d·d, x·q₀, d·q₀ in one pass,
    // then x·M_D x, d·M_D x and d·M_D d.
    private var xx = 0.0; private var xd = 0.0; private var dd = 0.0
    private var xq = 0.0; private var dq = 0.0
    locally {
      var j = 0
      while (j < dim) {
        val xj = x(j); val dj = d(j)
        xx += xj * xj; xd += xj * dj; dd += dj * dj; xq += xj * q0d(j); dq += dj * q0d(j)
        j += 1
      }
    }
    private val xmx = if (md == null) 0.0 else Linalg.dotDD(x, p.mx)
    private val dmx = if (md == null) 0.0 else Linalg.dotDD(d, p.mx)
    private val dmd = if (md == null) 0.0 else Linalg.dotDD(d, md)

    // The last trial: its a, gradient coefficients, value, slope and penalty sums.
    private val terms = new Array[Double](n)
    private val c = new Array[Double](n)
    private var lastA = Double.NaN
    private var lastF = 0.0; private var lastSlope = 0.0
    private var lastWw = 0.0; private var lastWq = 0.0; private var lastWmw = 0.0

    private def trial(a: Double): Unit = if (!(a == lastA)) {
      val u = p.u
      var i = 0
      while (i < n) { c(i) = logistic(i, FeatureScale * (u(i) + a * v(i)), terms); i += 1 }
      var loss = 0.0; var cv = 0.0
      i = 0
      while (i < n) { loss += terms(i); cv += c(i) * v(i); i += 1 }
      val ww = xx + a * (2.0 * xd + a * dd)
      val wq = xq + a * dq
      val wmw = xmx + a * (2.0 * dmx + a * dmd)
      // φ′(a) = Σ c_i v_i + the penalties' gradient dotted with d.
      val wd = xd + a * dd
      val nw2 = math.max(ww, MinNorm * MinNorm)
      val nw = math.sqrt(nw2)
      var slope = cv + 2.0 * lambda * wd
      if (lambdaC > 0) slope += -lambdaC * (dq / nw - wq * wd / (nw2 * nw))
      if (lambdaD > 0) slope += lambdaD * (2.0 * (dmx + a * dmd) / nw2 - 2.0 * wmw * wd / (nw2 * nw2))
      lastF = addPenalties(loss, ww, wq, wmw)
      lastSlope = slope
      lastWw = ww; lastWq = wq; lastWmw = wmw
      lastA = a
    }

    override def phi(a: Double): Double = { trial(a); lastF }
    override def slope(a: Double): Double = { trial(a); lastSlope }

    override def at(a: Double): LBFGS.Point = {
      trial(a)
      val xa = x.clone()
      Linalg.axpyD(a, d, xa)
      val ua = p.u.clone()
      Linalg.axpyD(a, v, ua)
      val mxa = if (md == null) null else { val m = p.mx.clone(); Linalg.axpyD(a, md, m); m }
      val grad = new Array[Double](dim)
      addXtc(c, grad)
      addPenaltyGradient(grad, xa, mxa, lastWw, lastWq, lastWmw)
      new LossPoint(LossFunction.this, xa, lastF, grad, ua, mxa)
    }
  }
}
