package repro.core

import repro.graph.DbAlignMatrix

/** Hyperparameters of the query aligner (paper §5.2 defaults). */
final case class AlignerConfig(
    lambda: Double = 100.0, // norm regularization λ
    lambdaC: Double = 10.0, // CLIP alignment λ_c (0 → few-shot baseline)
    lambdaD: Double = 1000.0, // DB alignment λ_D (0 → no M_D term)
) {
  require(lambda >= 0 && lambdaC >= 0 && lambdaD >= 0, "penalties must be non-negative")
}

object AlignerConfig {
  /** Few-shot CLIP baseline: logistic loss + norm penalty only (Eq. 1). */
  val FewShot: AlignerConfig = AlignerConfig(lambdaC = 0.0, lambdaD = 0.0)

  /** CLIP (query) alignment only (Eq. 2). */
  val QueryAlign: AlignerConfig = AlignerConfig(lambdaD = 0.0)

  /** Full SeeSaw: CLIP + DB alignment (Eq. 3). */
  val SeeSaw: AlignerConfig = AlignerConfig()
}

/** Solves Eq. 5: q_{t+1} = argmin_w L(w; feedback, q₀, M_D), the per-round
  * re-ranking step of the interactive loop (Listing 1, line 7).
  */
object QueryAligner {

  private val LbfgsMaxIters = 80

  /** The next query vector (unit norm).
    *
    * With no feedback yet, the minimizer of the regularizers alone is q₀ up
    * to scale, so we return q₀ directly — zero-shot and SeeSaw coincide on
    * round zero, as in the paper. A config with λ_D > 0 requires `mD`.
    */
  def align(
      q0: Array[Float],
      examples: IndexedSeq[Example],
      cfg: AlignerConfig,
      mD: Option[DbAlignMatrix] = None,
  ): Array[Float] = {
    if (examples.isEmpty) return Linalg.normalize(q0)
    val loss = new LossFunction(q0, examples, cfg.lambda, cfg.lambdaC, cfg.lambdaD, mD)
    // Warm start at q₀: a stationary-adjacent, well-scaled starting point.
    val res = LBFGS.minimize(
      loss,
      Linalg.toDouble(Linalg.normalize(q0)),
      maxIters = LbfgsMaxIters,
      gradTol = 1e-5,
    )
    val w = res.x
    if (Linalg.normD(w) < 1e-9) Linalg.normalize(q0)
    else Linalg.toFloat(Linalg.normalizeD(w))
  }
}
