package repro.store

/** A search hit: an image, its best-scoring patch, and that score. */
final case class ImageHit(imgId: Long, patchId: Int, score: Double)

/** Max-inner-product store over patch vectors (paper §2.2).
  *
  * The lookup unit is the *image*: an image's score is the maximum inner
  * product over its patches (the multiscale max rule of §4.3; with coarse
  * indexing every image has exactly one patch so the rule is a no-op).
  */
trait VectorStore {
  /** Embedding dimension. */
  def dim: Int

  /** Total number of patch vectors indexed. */
  def nVectors: Long

  /** Total number of images indexed. */
  def nImages: Long

  /** Top-k images by max patch inner product with `q`, descending score,
    * excluding already-seen images. Ties break by ascending imgId so results
    * are deterministic across store implementations. `k` must be positive.
    */
  def topImages(q: Array[Float], k: Int, exclude: Set[Long] = Set.empty): IndexedSeq[ImageHit]
}
