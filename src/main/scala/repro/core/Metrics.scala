package repro.core

/** Retrieval metrics, matching the paper's benchmark definition (§5.1).
  *
  * The benchmark shows images one at a time, stops after `target` (10)
  * relevant images are found or `budget` (60) images have been shown.
  * AP = (Σ_{i=1..R} P_i) / R where P_i is the precision at the i-th relevant
  * result (i / rank_i) and R = min(target, relevant results in the data).
  * Relevant results never found within the budget contribute precision 0.
  */
object Metrics {

  val DefaultTarget = 10
  val DefaultBudget = 60

  /** AP over a shown-image relevance trace.
    *
    * @param trace         relevance of each image in the order shown
    * @param totalRelevant number of relevant images in the whole dataset
    * @param target        result-count cutoff (paper: 10)
    */
  def averagePrecision(
      trace: Seq[Boolean],
      totalRelevant: Long,
      target: Int = DefaultTarget,
  ): Double = {
    require(totalRelevant >= 0, "totalRelevant must be non-negative")
    val r = math.min(target.toLong, totalRelevant)
    if (r == 0) return 0.0
    var found = 0
    var sum = 0.0
    var rank = 0
    val it = trace.iterator
    while (it.hasNext && found < r) {
      rank += 1
      if (it.next()) { found += 1; sum += found.toDouble / rank }
    }
    sum / r
  }

  /** Mean of a non-empty sequence; 0.0 for empty (a dataset with no queries). */
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** The paper's hard-subset rule: queries whose zero-shot AP < 0.5. */
  val HardThreshold = 0.5
  def isHard(zeroShotAp: Double): Boolean = zeroShotAp < HardThreshold
}
