package repro.bench

import repro.core.Rng

/** Simulated per-image annotation timing (Table 5 substitution).
  *
  * The paper measures human annotation time per image across four cells:
  * {not marked, marked relevant} × {baseline, seesaw}. We have no human
  * subjects, so the simulated user draws per-image times from truncated
  * normals whose means encode the paper's findings: skipping is fast,
  * marking takes ~1s more, and drawing a region box (seesaw) adds ~50%
  * overhead to marking. The harness then *regenerates* the table (means and
  * bootstrap CIs over simulated sessions) and computes end-to-end task times
  * in which the accuracy difference between methods — which is real, from
  * the search traces — interacts with the annotation overhead, as in §5.5.
  */
final case class TimeCell(meanSeconds: Double, sdSeconds: Double) {
  require(meanSeconds > 0 && sdSeconds >= 0, "invalid time distribution")
}

final case class UserTimeModel(
    baselineNotMarked: TimeCell,
    baselineMarked: TimeCell,
    seesawNotMarked: TimeCell,
    seesawMarked: TimeCell,
) {

  def cell(marked: Boolean, seesaw: Boolean): TimeCell = (marked, seesaw) match {
    case (false, false) => baselineNotMarked
    case (true, false) => baselineMarked
    case (false, true) => seesawNotMarked
    case (true, true) => seesawMarked
  }

  /** Deterministic truncated-normal draw for one shown image. */
  def sample(key: Long, marked: Boolean, seesaw: Boolean): Double = {
    val c = cell(marked, seesaw)
    math.max(UserTimeModel.MinSeconds, c.meanSeconds + c.sdSeconds * Rng.gaussian(key))
  }
}

object UserTimeModel {
  /** Lower truncation point (seconds) of every per-image time draw. */
  private val MinSeconds = 0.3

  /** Cell means from the paper's Table 5; per-sample spreads chosen so the
    * simulated population has human-plausible variability (the paper reports
    * only CIs of the mean).
    */
  val FromPaper: UserTimeModel = UserTimeModel(
    baselineNotMarked = TimeCell(1.98, 0.9),
    baselineMarked = TimeCell(3.00, 1.4),
    seesawNotMarked = TimeCell(2.40, 1.1),
    seesawMarked = TimeCell(4.40, 2.0),
  )

  /** Mean and 95% CI half-width of a sample. */
  def meanCi(xs: Seq[Double]): (Double, Double) = {
    require(xs.nonEmpty, "empty sample")
    val m = xs.sum / xs.size
    if (xs.size < 2) return (m, 0.0)
    val variance = xs.map(x => (x - m) * (x - m)).sum / (xs.size - 1)
    (m, 1.96 * math.sqrt(variance / xs.size))
  }
}
