package repro.embed

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Linalg, Rng}
import repro.data.{DatasetSpec, ImageCorpus, ImageMeta}

/** One embedded patch of one image. Patch 0 is always the coarse patch. */
final case class PatchRecord(
    imgId: Long,
    patchId: Int,
    x0: Double, y0: Double, x1: Double, y1: Double,
    vec: Array[Float],
) {
  def box: Box = Box(x0, y0, x1, y1)
}

/** Synthetic CLIP image encoder (the paper's preprocessing substrate).
  *
  * The embedding of a region is the unit-normalized, area-weighted mixture
  * of the vectors of what the region contains:
  *
  *   emb(R) = normalize( Σ_o frac(o∩R) · inst(o)  +  bg(R) · clutter(R)
  *                       + regionNoise · η(R) )
  *
  * where `frac(o∩R)` is the fraction of the region covered by object `o`,
  * `inst(o)` is the object's per-instance appearance vector (its category
  * mode prototype plus instance noise), `clutter(R)` is a mixture of the
  * image's background concepts with per-region weights, and η is unit noise.
  *
  * This reproduces the dilution CLIP exhibits on small objects: a 100px car
  * in a 1280×720 frame contributes ~1% of the coarse embedding but ~8% of a
  * 360px patch embedding — the mechanism behind the paper's multiscale gains
  * (§4.3). All draws are pure functions of (spec, imgId, region), so Spark
  * executors and local stores produce bitwise-identical vectors.
  *
  * The concept prototypes come from the spec's one shared [[ConceptSpace]],
  * computed once, and [[patchRecords]] computes each object's instance
  * vector once per image, not once per patch that sees it.
  */
object ClipSim {

  private val InstStream = 0x3001L
  private val ClutPickStream = 0x3002L
  private val ClutWeightStream = 0x3003L
  private val RegionNoiseStream = 0x3004L

  /** Deterministic unit-norm noise vector for a key. */
  private def unitNoise(k: Long, dim: Int): Array[Float] =
    Linalg.normalize(Rng.gaussianVector(k, dim))

  /** Appearance vector of object `objIdx` in image `imgId` (shared by every
    * patch that sees the object).
    */
  def instanceVector(spec: DatasetSpec, meta: ImageMeta, objIdx: Int): Array[Float] = {
    val cs = spec.conceptSpace
    val o = meta.objects(objIdx)
    val proto = cs.modeProto(o.cat, o.mode)
    val noise = unitNoise(Rng.key(spec.seed, InstStream, meta.imgId, objIdx), spec.dim)
    val v = proto.clone()
    Linalg.axpy(spec.instanceNoise, noise, v)
    Linalg.normalize(v)
  }

  private def regionKey(spec: DatasetSpec, imgId: Long, r: Box): Long =
    Rng.key(spec.seed, imgId,
      java.lang.Double.doubleToLongBits(r.x0), java.lang.Double.doubleToLongBits(r.y0),
      java.lang.Double.doubleToLongBits(r.x1), java.lang.Double.doubleToLongBits(r.y1))

  /** Background clutter mixture seen by a region: the image's clutter
    * concepts with region-specific weights (so different tiles of one image
    * differ, but share the image's background palette).
    */
  private def clutterVector(spec: DatasetSpec, imgId: Long, r: Box): Array[Float] = {
    val cs = spec.conceptSpace
    val acc = new Array[Float](spec.dim)
    val rk = regionKey(spec, imgId, r)
    var j = 0
    while (j < spec.clutterConcepts) {
      val concept = Rng.int(Rng.key(spec.seed, ClutPickStream, imgId, j), spec.nBg)
      val w = Rng.uniform(Rng.key(rk, ClutWeightStream, j), 0.5, 1.5)
      Linalg.axpy(w, cs.bgProto(concept), acc)
      j += 1
    }
    Linalg.normalize(acc)
  }

  /** Unit embedding of a region of an image. Object weights are the area
    * fraction raised to the prominence exponent (see DatasetSpec):
    * CLIP-like encoders weight salient objects super-linearly vs pixel area.
    */
  def embedRegion(spec: DatasetSpec, meta: ImageMeta, region: Box): Array[Float] =
    embedRegion(spec, meta, region, instanceVector(spec, meta, _))

  /** [[embedRegion]] with object i's instance vector given by `inst(i)`. */
  private def embedRegion(
      spec: DatasetSpec, meta: ImageMeta, region: Box, inst: Int => Array[Float]): Array[Float] = {
    require(region.area > 0, "cannot embed an empty region")
    val acc = new Array[Float](spec.dim)
    var objCover = 0.0
    var i = 0
    while (i < meta.objects.length) {
      val o = meta.objects(i)
      val frac = o.box.intersectionArea(region) / region.area
      if (frac > 0) {
        Linalg.axpy(math.pow(frac, DatasetSpec.Prominence), inst(i), acc)
        objCover += frac
      }
      i += 1
    }
    val bgWeight = math.max(0.05, 1.0 - objCover)
    Linalg.axpy(bgWeight, clutterVector(spec, meta.imgId, region), acc)
    val noise = unitNoise(Rng.key(regionKey(spec, meta.imgId, region), RegionNoiseStream), spec.dim)
    Linalg.axpy(spec.regionNoise, noise, acc)
    Linalg.normalize(acc)
  }

  /** All patch records of one image (patch 0 = coarse). Each object's
    * instance vector is computed once and shared by every patch.
    */
  def patchRecords(spec: DatasetSpec, meta: ImageMeta, multiscale: Boolean): Seq[PatchRecord] = {
    val inst = Array.tabulate(meta.objects.length)(instanceVector(spec, meta, _))
    Multiscale.patches(meta.w, meta.h, multiscale).zipWithIndex.map { case (b, pid) =>
      PatchRecord(meta.imgId, pid, b.x0, b.y0, b.x1, b.y1, embedRegion(spec, meta, b, inst(_)))
    }
  }

  /** The preprocessing pipeline (paper §2.4) as a Spark dataflow:
    * image metadata → multiscale tiling → embedding → vector table
    * `(img_id, patch_id, px0, py0, px1, py1, vec)`.
    */
  def patchVectors(
      spark: SparkSession, spec: DatasetSpec, sf: Double, multiscale: Boolean): DataFrame = {
    import spark.implicits._
    val n = spec.imagesAt(sf).toLong
    spark.range(n)
      .flatMap { id =>
        patchRecords(spec, ImageCorpus.imageMeta(spec, id), multiscale)
          .map(p => (p.imgId, p.patchId, p.x0, p.y0, p.x1, p.y1, p.vec))
      }
      .toDF("img_id", "patch_id", "px0", "py0", "px1", "py1", "vec")
  }
}
