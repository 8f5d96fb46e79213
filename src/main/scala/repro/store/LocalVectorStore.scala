package repro.store

import repro.core.Linalg
import repro.data.{DatasetSpec, ImageCorpus}
import repro.embed.{ClipSim, PatchRecord}

/** In-memory vector store over flat arrays.
  *
  * This is the store broadcast into per-query simulation UDFs (thousands of
  * interactive search loops run against it during the benchmark sweeps) and
  * the exact reference the Spark and LSH stores are tested against. Patches
  * of an image are stored contiguously so the per-image max rule is a single
  * streaming pass.
  */
final class LocalVectorStore private (sorted: Array[PatchRecord]) extends VectorStore with Serializable {
  require(sorted.nonEmpty, "empty store")

  // Sorted by (imgId, patchId) so per-image blocks are contiguous.
  def this(records: IndexedSeq[PatchRecord]) = this(records.sortBy(r => (r.imgId, r.patchId)).toArray)

  val vecs: Array[Array[Float]] = sorted.map(_.vec)
  val imgIds: Array[Long] = sorted.map(_.imgId)
  val patchIds: Array[Int] = sorted.map(_.patchId)

  override val dim: Int = vecs(0).length
  override val nVectors: Long = vecs.length.toLong
  override val nImages: Long = imgIds.indices.count(i => i == 0 || imgIds(i) != imgIds(i - 1)).toLong

  override def topImages(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
    require(q.length == dim, s"query dim ${q.length} != store dim $dim")
    require(k > 0, "k must be positive")
    // Min-heap of the current top-k; orders worst-first so peek is the bar.
    val heap = scala.collection.mutable.PriorityQueue.empty[ImageHit](
      Ordering.by[ImageHit, (Double, Long)](h => (-h.score, h.imgId)))
    var i = 0
    val n = vecs.length
    while (i < n) {
      val img = imgIds(i)
      if (exclude.contains(img)) {
        while (i < n && imgIds(i) == img) i += 1
      } else {
        var best = Double.NegativeInfinity
        var bestPatch = -1
        while (i < n && imgIds(i) == img) {
          val s = Linalg.dot(vecs(i), q)
          if (s > best) { best = s; bestPatch = patchIds(i) }
          i += 1
        }
        if (heap.size < k) heap.enqueue(ImageHit(img, bestPatch, best))
        else {
          val worst = heap.head
          if (best > worst.score || (best == worst.score && img < worst.imgId)) {
            heap.dequeue(); heap.enqueue(ImageHit(img, bestPatch, best))
          }
        }
      }
    }
    heap.dequeueAll.reverse.toIndexedSeq
  }
}

object LocalVectorStore {
  /** Build a store for a synthetic corpus directly (no Spark round-trip);
    * bitwise-identical to collecting `ClipSim.patchVectors` because the
    * embedder is a pure function. Embedding is parallelized over images
    * (pure per-image work, deterministic output).
    */
  def build(spec: DatasetSpec, sf: Double, multiscale: Boolean): LocalVectorStore = {
    val metas = ImageCorpus.metasLocal(spec, sf)
    val perImage = new Array[Seq[PatchRecord]](metas.length)
    java.util.stream.IntStream.range(0, metas.length).parallel().forEach { i =>
      perImage(i) = ClipSim.patchRecords(spec, metas(i), multiscale)
    }
    new LocalVectorStore(perImage.toIndexedSeq.flatten)
  }
}
