package repro.data

import repro.core.Rng
import repro.embed.Box

/** One annotated object instance inside an image. */
final case class ObjectInstance(cat: Int, mode: Int, x0: Double, y0: Double, x1: Double, y1: Double) {
  def box: Box = Box(x0, y0, x1, y1)
}

/** Generated image metadata: frame size plus ground-truth object boxes. */
final case class ImageMeta(imgId: Long, w: Int, h: Int, objects: Seq[ObjectInstance])

/** Deterministic synthetic image corpora — the LVIS/ObjectNet/COCO/BDD
  * stand-ins (see DESIGN.md §2 for the substitution argument).
  *
  * `imageMeta(spec, imgId)` is a pure function, so the Spark generators, the
  * local benchmark stores, and the DuckDB oracle all reconstruct identical
  * ground truth from (spec, sf) alone.
  */
object ImageCorpus {

  private val CountStream = 0x2001L
  private val CatStream = 0x2002L
  private val ScaleStream = 0x2003L
  private val PosStream = 0x2004L
  private val ModeStream = 0x2005L

  /** Ground truth for image `imgId` of `spec` — pure and deterministic. */
  def imageMeta(spec: DatasetSpec, imgId: Long): ImageMeta = {
    val nObj =
      if (spec.minObjPerImage == spec.maxObjPerImage) spec.minObjPerImage
      else spec.minObjPerImage + Rng.int(
        Rng.key(spec.seed, CountStream, imgId),
        spec.maxObjPerImage - spec.minObjPerImage + 1)
    val objects = (0 until nObj).map(i => sampleObject(spec, imgId, i))
    ImageMeta(imgId, spec.imgW, spec.imgH, objects)
  }

  private def sampleObject(spec: DatasetSpec, imgId: Long, objIdx: Int): ObjectInstance = {
    val cat = Rng.zipf(Rng.key(spec.seed, CatStream, imgId, objIdx), spec.nCats, spec.catZipfAlpha)
    val cs = spec.conceptSpace
    val mode =
      if (cs.nModes(cat) == 1) 0
      else Rng.int(Rng.key(spec.seed, ModeStream, imgId, objIdx), 2)
    val minDim = math.min(spec.imgW, spec.imgH).toDouble
    val size = minDim * Rng.uniform(
      Rng.key(spec.seed, ScaleStream, imgId, objIdx),
      spec.objScaleRange._1, spec.objScaleRange._2)
    val (x0, y0) =
      if (spec.centered) ((spec.imgW - size) / 2.0, (spec.imgH - size) / 2.0)
      else (
        Rng.uniform(Rng.key(spec.seed, PosStream, imgId, objIdx, 0L), 0.0, spec.imgW - size),
        Rng.uniform(Rng.key(spec.seed, PosStream, imgId, objIdx, 1L), 0.0, spec.imgH - size),
      )
    ObjectInstance(cat, mode, x0, y0, x0 + size, y0 + size)
  }

  /** All image metadata at a scale factor, driver-side (small at our SFs). */
  def metasLocal(spec: DatasetSpec, sf: Double): IndexedSeq[ImageMeta] =
    (0L until spec.imagesAt(sf).toLong).map(imageMeta(spec, _))
}
