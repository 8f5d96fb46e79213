package repro.data

import repro.embed.ConceptSpace

/** Generation knobs for one synthetic image corpus.
  *
  * The four presets mirror the *distinguishing statistics* of the paper's
  * evaluation datasets (§5.1), which is what drives the per-column behaviour
  * in Tables 2 and 3:
  *
  *  - LVIS-like: many categories, several smallish annotated objects per
  *    image → long zero-shot tail, multiscale helps;
  *  - ObjectNet-like: 224×224 images, single large centered object → no
  *    multiscale benefit at all, moderate tail (controlled bias dataset);
  *  - COCO-like: few categories, prominent subjects, mostly easy queries →
  *    very high zero-shot AP, little room at the top;
  *  - BDD-like: big 1280×720 frames with tiny objects → coarse embeddings
  *    nearly blind to rare classes, multiscale matters most.
  *
  * `nImages` is the SF=1.0 count; generators scale it by the scale factor.
  */
final case class DatasetSpec(
    name: String,
    nImages: Int,
    imgW: Int,
    imgH: Int,
    nCats: Int,
    nBg: Int,
    catZipfAlpha: Double,
    minObjPerImage: Int,
    maxObjPerImage: Int,
    objScaleRange: (Double, Double), // linear size as fraction of min(imgW,imgH)
    centered: Boolean, // ObjectNet-style single centered object
    deficitGoodFrac: Double,
    deficitGoodRange: (Double, Double),
    deficitBadRange: (Double, Double),
    localitySplitFrac: Double,
    instanceNoise: Double, // σ of per-object-instance embedding noise
    regionNoise: Double, // σ of per-region embedding noise
    clutterConcepts: Int, // background concepts blended per image
    dim: Int,
    seed: Long,
) {
  require(minObjPerImage >= (if (centered) 1 else 0) && maxObjPerImage >= minObjPerImage,
    "object count range invalid")
  require(objScaleRange._1 > 0 && objScaleRange._2 <= 1.0 &&
    objScaleRange._1 <= objScaleRange._2, "object scale range invalid")

  /** Image count at a given scale factor (>= 50 so AP stats are meaningful). */
  def imagesAt(sf: Double): Int = math.max(50, (nImages * sf).toInt)

  /** The spec's concept space, built once per instance and shared by every
    * patch, object and text query of the corpus, so its prototype tables are
    * computed once. `@transient`: serialization ships only the constructor
    * fields, and each JVM rebuilds the space on first use.
    */
  @transient lazy val conceptSpace: ConceptSpace = ConceptSpace(
    dim = dim, nCats = nCats, nBg = nBg, seed = seed,
    deficitGoodFrac = deficitGoodFrac,
    deficitGoodRange = deficitGoodRange,
    deficitBadRange = deficitBadRange,
    localitySplitFrac = localitySplitFrac,
  )
}

object DatasetSpec {
  /** Object weight in a region embedding is (area fraction)^Prominence:
    * sublinear (<1) because CLIP attends to salient objects super-linearly
    * relative to their pixel share (photos are object-centric).
    */
  val Prominence = 0.7

  /** Default embedding dimension for benches; tests pass dim=64. Paper: 512. */
  val BenchDim = 128

  /** Scale factor of the accuracy tables and the preprocessing job (paper
    * datasets are 20K–120K images; 0.05 gives 0.8K–1.2K images per corpus).
    */
  val BenchSf = 0.05

  def lvisLike(dim: Int = BenchDim, seed: Long = 11): DatasetSpec = DatasetSpec(
    name = "LVIS", nImages = 24000, imgW = 640, imgH = 480,
    nCats = 60, nBg = 40, catZipfAlpha = 0.6,
    minObjPerImage = 2, maxObjPerImage = 6,
    objScaleRange = (0.16, 0.48), centered = false,
    deficitGoodFrac = 0.55, deficitGoodRange = (0.0, 0.35),
    deficitBadRange = (0.5, 1.5), localitySplitFrac = 0.15,
    instanceNoise = 1.00, regionNoise = 0.06, clutterConcepts = 4,
    dim = dim, seed = seed,
  )

  def objectNetLike(dim: Int = BenchDim, seed: Long = 22): DatasetSpec = DatasetSpec(
    name = "ObjNet", nImages = 20000, imgW = 224, imgH = 224,
    nCats = 50, nBg = 30, catZipfAlpha = 0.15,
    minObjPerImage = 1, maxObjPerImage = 1,
    objScaleRange = (0.55, 0.90), centered = true,
    deficitGoodFrac = 0.40, deficitGoodRange = (0.0, 0.35),
    deficitBadRange = (0.55, 1.6), localitySplitFrac = 0.20,
    instanceNoise = 1.50, regionNoise = 0.08, clutterConcepts = 3,
    dim = dim, seed = seed,
  )

  def cocoLike(dim: Int = BenchDim, seed: Long = 33): DatasetSpec = DatasetSpec(
    name = "COCO", nImages = 24000, imgW = 640, imgH = 480,
    nCats = 30, nBg = 30, catZipfAlpha = 0.55,
    minObjPerImage = 1, maxObjPerImage = 3,
    objScaleRange = (0.25, 0.70), centered = false,
    deficitGoodFrac = 0.70, deficitGoodRange = (0.0, 0.25),
    deficitBadRange = (0.7, 1.6), localitySplitFrac = 0.05,
    instanceNoise = 0.80, regionNoise = 0.05, clutterConcepts = 3,
    dim = dim, seed = seed,
  )

  def bddLike(dim: Int = BenchDim, seed: Long = 44): DatasetSpec = DatasetSpec(
    name = "BDD", nImages = 16000, imgW = 1280, imgH = 720,
    nCats = 10, nBg = 25, catZipfAlpha = 0.9,
    minObjPerImage = 1, maxObjPerImage = 4,
    objScaleRange = (0.10, 0.36), centered = false,
    deficitGoodFrac = 0.70, deficitGoodRange = (0.0, 0.30),
    deficitBadRange = (0.6, 1.8), localitySplitFrac = 0.10,
    instanceNoise = 1.00, regionNoise = 0.06, clutterConcepts = 4,
    dim = dim, seed = seed,
  )

  /** The four evaluation corpora, in the paper's table column order. */
  def all(dim: Int = BenchDim): Seq[DatasetSpec] =
    Seq(lvisLike(dim), objectNetLike(dim), cocoLike(dim), bddLike(dim))
}
