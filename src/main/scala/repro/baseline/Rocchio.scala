package repro.baseline

import repro.core.{Example, Linalg}

/** Rocchio's relevance-feedback algorithm (paper §5.4, Eq. 6):
  *
  *   q = α q₀ + (β/|D_r|) Σ_{d∈D_r} d − (γ/|D_n|) Σ_{d∈D_n} d
  *
  * with the paper's tuned weights α=1, β=.5, γ=.25, which every caller
  * uses. Implicitly a form of CLIP alignment — the α q₀ term anchors the
  * query to the original text embedding, which is why it beats few-shot
  * CLIP in Table 3.
  */
object Rocchio {

  private val Alpha = 1.0
  private val Beta = 0.5
  private val Gamma = 0.25

  /** The updated (unit-norm) query given feedback so far. */
  def update(q0: Array[Float], examples: IndexedSeq[Example]): Array[Float] = {
    val q = q0.map(v => (Alpha * v).toFloat)
    val pos = examples.collect { case e if e.positive => e.vec }
    val neg = examples.collect { case e if !e.positive => e.vec }
    if (pos.nonEmpty) Linalg.axpy(Beta, Linalg.mean(pos), q)
    if (neg.nonEmpty) Linalg.axpy(-Gamma, Linalg.mean(neg), q)
    Linalg.normalize(q)
  }
}
