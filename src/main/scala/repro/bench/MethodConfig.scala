package repro.bench

import repro.core.AlignerConfig

/** A search method under benchmark — one row of Tables 2/3. */
sealed trait MethodConfig extends Serializable {
  /** Row label, matching the paper's tables. */
  def name: String
}

object MethodConfig {

  /** CLIP text vector only, feedback ignored. */
  case object ZeroShot extends MethodConfig { val name = "zero-shot CLIP" }

  /** Query-aligner family: few-shot (λc=λD=0), query align (λD=0), SeeSaw. */
  final case class Aligned(name: String, cfg: AlignerConfig) extends MethodConfig

  val FewShot: Aligned = Aligned("few-shot CLIP", AlignerConfig.FewShot)
  val QueryAlign: Aligned = Aligned("+Query align", AlignerConfig.QueryAlign)
  val SeeSaw: Aligned = Aligned("this work", AlignerConfig.SeeSaw)

  /** Rocchio relevance feedback with the paper's Eq. 6 weights. */
  case object Rocchio extends MethodConfig { val name = "Rocchio" }

  /** Efficient Nonmyopic Search over the `BenchmarkRunner.EnsK` graph.
    *
    * @param horizon    initial reward horizon t; -1 = remaining budget
    * @param calibrated Platt-calibrate the γ_i priors on ground truth
    */
  final case class EnsCfg(horizon: Int = -1, calibrated: Boolean = false) extends MethodConfig {
    require(horizon == -1 || horizon >= 1, "horizon must be -1 or >= 1")
    val name: String =
      if (horizon == -1 && !calibrated) "ENS"
      else s"ENS(t=${if (horizon == -1) "rem" else horizon.toString},${if (calibrated) "cal" else "raw"})"
  }
}
