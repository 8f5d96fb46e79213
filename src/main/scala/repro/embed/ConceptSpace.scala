package repro.embed

import repro.core.{Linalg, Rng}

/** Synthetic visual-semantic concept space — the CLIP substitute.
  *
  * The paper's algorithms only interact with the *geometry* of the CLIP
  * space: categories occupy (mostly) tight clusters, text queries are
  * imperfectly aligned with those clusters, and small objects are diluted
  * inside whole-image embeddings. This class realizes that geometry:
  *
  *   - each category `k` has a unit prototype vector;
  *   - the *text* embedding of a category is the prototype rotated by a
  *     per-category **alignment deficit** angle toward a mixture of other
  *     concepts (Fig. 2a of the paper) — `cos(text, proto) = 1/sqrt(1+δ²)`;
  *   - a fraction of categories is split into two distant visual modes
  *     (**concept-locality deficit**, Fig. 2b);
  *   - background clutter has its own prototype set.
  *
  * Everything is a pure function of (config, indices) via [[Rng]], so Spark
  * executors and the driver reconstruct identical vectors with no shipping.
  *
  * The category, background and second-mode prototypes are computed once per
  * instance, on first use, into `@transient` tables that serialization does
  * not ship. `catProto`, `bgProto` and `modeProto` return the shared table
  * rows: callers only read them, and must clone a row before changing it.
  */
final case class ConceptSpace(
    dim: Int,
    nCats: Int,
    nBg: Int,
    seed: Long,
    deficitGoodFrac: Double,
    deficitGoodRange: (Double, Double),
    deficitBadRange: (Double, Double),
    localitySplitFrac: Double,
) {
  require(dim > 0 && nCats > 0 && nBg > 0, "dimensions and counts must be positive")
  require(deficitGoodFrac >= 0 && deficitGoodFrac <= 1, "deficitGoodFrac in [0,1]")

  private val CatStream = 0x1001L
  private val BgStream = 0x1002L
  private val DefSelStream = 0x1003L
  private val DefDirStream = 0x1004L
  private val SplitStream = 0x1005L
  private val SplitDirStream = 0x1006L

  @transient private lazy val catProtos: Array[Array[Float]] =
    Array.tabulate(nCats)(k => Linalg.normalize(Rng.gaussianVector(Rng.key(seed, CatStream, k), dim)))

  @transient private lazy val bgProtos: Array[Array[Float]] =
    Array.tabulate(nBg)(j => Linalg.normalize(Rng.gaussianVector(Rng.key(seed, BgStream, j), dim)))

  /** Second-mode prototype of each split category: the primary prototype
    * moved `SplitDistance` along a unit direction orthogonal to it.
    */
  @transient private lazy val secondModeProtos: Map[Int, Array[Float]] =
    (0 until nCats).filter(hasSplitMode).map { k =>
      val c = Linalg.toDouble(catProtos(k))
      val dir = orthogonalize(
        Linalg.toDouble(Rng.gaussianVector(Rng.key(seed, SplitDirStream, k), dim)), c)
      val p = c.clone()
      Linalg.axpyD(ConceptSpace.SplitDistance, dir, p)
      k -> Linalg.toFloat(Linalg.normalizeD(p))
    }.toMap

  /** Unit prototype of category k (its primary visual mode). Shared row:
    * do not mutate.
    */
  def catProto(k: Int): Array[Float] = {
    require(k >= 0 && k < nCats, s"category $k out of range [0,$nCats)")
    catProtos(k)
  }

  /** Unit prototype of background-clutter concept j. Shared row: do not
    * mutate.
    */
  def bgProto(j: Int): Array[Float] = {
    require(j >= 0 && j < nBg, s"bg concept $j out of range [0,$nBg)")
    bgProtos(j)
  }

  /** Per-category alignment deficit δ ≥ 0 (0 = perfectly aligned text). */
  def alignmentDeficit(k: Int): Double = {
    val sel = Rng.uniform(Rng.key(seed, DefSelStream, k))
    if (sel < deficitGoodFrac)
      Rng.uniform(Rng.key(seed, DefSelStream, k, 1L), deficitGoodRange._1, deficitGoodRange._2)
    else
      Rng.uniform(Rng.key(seed, DefSelStream, k, 1L), deficitBadRange._1, deficitBadRange._2)
  }

  /** Deficit direction: a unit mixture of *other* concepts, orthogonalized
    * against the category prototype so δ alone controls the rotation angle.
    * Pointing at real distractor concepts (not isotropic noise) is what makes
    * a misaligned text query retrieve plausible-but-wrong images first.
    */
  private def deficitDirection(k: Int): Array[Double] = {
    val c = Linalg.toDouble(catProto(k))
    val mix = new Array[Double](dim)
    var j = 0
    while (j < 3) {
      val pick = Rng.key(seed, DefDirStream, k, j)
      val other =
        if (Rng.uniform(Rng.key(pick, 0L)) < 0.5) {
          val o = Rng.int(Rng.key(pick, 1L), math.max(nCats - 1, 1))
          catProto(if (o >= k) o + 1 min (nCats - 1) else o)
        } else bgProto(Rng.int(Rng.key(pick, 2L), nBg))
      val wgt = Rng.uniform(Rng.key(pick, 3L), 0.3, 1.0)
      var i = 0
      while (i < dim) { mix(i) += wgt * other(i); i += 1 }
      j += 1
    }
    orthogonalize(mix, c)
  }

  /** Remove the component of v along unit u and normalize the remainder. */
  private def orthogonalize(v: Array[Double], u: Array[Double]): Array[Double] = {
    val proj = Linalg.dotDD(v, u)
    val out = v.clone()
    Linalg.axpyD(-proj, u, out)
    if (Linalg.normD(out) < 1e-9) {
      // Degenerate (v ∥ u): fall back to an arbitrary orthogonal direction.
      val alt = Linalg.toDouble(Rng.gaussianVector(Rng.key(seed, DefDirStream, 0xdeadL), dim))
      orthogonalize(alt, u)
    } else Linalg.normalizeD(out)
  }

  /** The CLIP-text-embedding stand-in for category k: proto rotated by δ. */
  def textEmbedding(k: Int): Array[Float] = {
    val c = Linalg.toDouble(catProto(k))
    val d = deficitDirection(k)
    val delta = alignmentDeficit(k)
    val q = c.clone()
    Linalg.axpyD(delta, d, q)
    Linalg.toFloat(Linalg.normalizeD(q))
  }

  /** Whether category k has a second, distant visual mode. */
  def hasSplitMode(k: Int): Boolean =
    Rng.uniform(Rng.key(seed, SplitStream, k)) < localitySplitFrac

  /** Number of visual modes of category k (1 or 2). */
  def nModes(k: Int): Int = if (hasSplitMode(k)) 2 else 1

  /** Prototype of visual mode m of category k. Mode 0 is the primary.
    * Shared row: do not mutate.
    */
  def modeProto(k: Int, m: Int): Array[Float] = {
    require(k >= 0 && k < nCats, s"category $k out of range [0,$nCats)")
    require(m >= 0 && m < nModes(k), s"mode $m out of range for category $k")
    if (m == 0) catProtos(k) else secondModeProtos(k)
  }
}

object ConceptSpace {
  /** Offset of a split category's second mode from its prototype, along a
    * unit direction orthogonal to it: cos(mode 0, mode 1) = 1/sqrt(1+d²).
    */
  val SplitDistance = 1.2
}
