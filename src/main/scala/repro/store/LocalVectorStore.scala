package repro.store

import repro.core.Linalg
import repro.data.{DatasetSpec, ImageCorpus}
import repro.embed.{ClipSim, PatchRecord}

/** In-memory vector store over flat arrays.
  *
  * This is the store broadcast into per-query simulation UDFs (thousands of
  * interactive search loops run against it during the benchmark sweeps) and
  * the exact reference the Spark store is tested against. Patches
  * of an image are stored contiguously, sorted by (imgId, patchId), so the
  * per-image max rule is a streaming pass over a run of rows.
  *
  * A large store is cut at construction into at most one contiguous chunk
  * per processor, each carrying at least `MinChunkMacs` multiply-adds per
  * query (give or take one image), and every chunk starts on an image
  * boundary. `topImages` scans the chunks in parallel on the common
  * ForkJoin pool; each keeps its own top-k under the (score desc, imgId asc)
  * order, and the merge sorts those ≤ nChunks·k candidates under the same
  * order. No image spans two chunks, so every image's score is computed
  * whole inside one chunk, and any image in the global top-k is in the top-k
  * of its own chunk: the merge is the exact global top-k. A store below the
  * minimum has one chunk and scans inline on the caller's thread. The
  * chunk bounds are fixed when the store is built and travel with it when
  * it is serialized.
  *
  * A scan keeps all its state in locals, so one store can be shared by many
  * threads.
  */
final class LocalVectorStore private (sorted: Array[PatchRecord], processors: Int)
    extends VectorStore with Serializable {
  import LocalVectorStore.BestFirst
  require(sorted.nonEmpty, "empty store")

  def this(records: IndexedSeq[PatchRecord]) = this(LocalVectorStore.sortRecords(records),
    Runtime.getRuntime.availableProcessors())

  val vecs: Array[Array[Float]] = sorted.map(_.vec)
  val imgIds: Array[Long] = sorted.map(_.imgId)
  val patchIds: Array[Int] = sorted.map(_.patchId)

  override val dim: Int = vecs(0).length
  require(vecs.forall(_.length == dim), "patch vectors differ in dimension")
  override val nVectors: Long = vecs.length.toLong
  override val nImages: Long = imgIds.indices.count(i => i == 0 || imgIds(i) != imgIds(i - 1)).toLong

  /** Row offsets of the scan chunks: chunk c covers rows
    * [chunkStarts(c), chunkStarts(c + 1)), and the last entry is `vecs.length`.
    */
  private[store] val chunkStarts: Array[Int] = LocalVectorStore.chunkStarts(imgIds, dim, processors)

  private[store] def nChunks: Int = chunkStarts.length - 1

  override def topImages(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
    require(q.length == dim, s"query dim ${q.length} != store dim $dim")
    require(k > 0, "k must be positive")
    if (nChunks == 1) scanChunk(0, q, k, exclude).toIndexedSeq
    else {
      val perChunk = new Array[Array[ImageHit]](nChunks)
      java.util.stream.IntStream.range(0, nChunks).parallel().forEach { c =>
        perChunk(c) = scanChunk(c, q, k, exclude)
      }
      perChunk.flatten.sorted(BestFirst).take(k).toIndexedSeq
    }
  }

  /** Top-k unexcluded images of chunk `c`, best first. */
  private def scanChunk(c: Int, q: Array[Float], k: Int, exclude: Set[Long]): Array[ImageHit] = {
    // Min-heap of the current top-k; orders worst-first so peek is the bar.
    val heap = scala.collection.mutable.PriorityQueue.empty[ImageHit](BestFirst)
    var i = chunkStarts(c)
    val end = chunkStarts(c + 1)
    while (i < end) {
      val img = imgIds(i)
      var imgEnd = i + 1
      while (imgEnd < end && imgIds(imgEnd) == img) imgEnd += 1
      if (!exclude.contains(img)) {
        var best = Double.NegativeInfinity
        var bestPatch = -1
        // Score four rows per pass with independent accumulators; each row
        // sums a(j).toDouble * q(j) in index order, exactly as Linalg.dot.
        while (i + 4 <= imgEnd) {
          val a0 = vecs(i); val a1 = vecs(i + 1); val a2 = vecs(i + 2); val a3 = vecs(i + 3)
          var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
          var j = 0
          while (j < dim) {
            val qj = q(j)
            s0 += a0(j).toDouble * qj
            s1 += a1(j).toDouble * qj
            s2 += a2(j).toDouble * qj
            s3 += a3(j).toDouble * qj
            j += 1
          }
          if (s0 > best) { best = s0; bestPatch = patchIds(i) }
          if (s1 > best) { best = s1; bestPatch = patchIds(i + 1) }
          if (s2 > best) { best = s2; bestPatch = patchIds(i + 2) }
          if (s3 > best) { best = s3; bestPatch = patchIds(i + 3) }
          i += 4
        }
        while (i < imgEnd) {
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
      i = imgEnd
    }
    heap.dequeueAll.reverse.toArray
  }
}

object LocalVectorStore {
  /** Fewest multiply-adds per query one scan chunk must carry before the
    * scan is split (about 16K vectors at 128-d); below it, the fork/join
    * overhead outweighs the parallel speed-up.
    */
  val MinChunkMacs: Long = 1L << 21

  /** (score desc, imgId asc): the result order, and a priority queue's
    * worst-first order.
    */
  private[store] val BestFirst: Ordering[ImageHit] = Ordering.by[ImageHit, (Double, Long)](h => (-h.score, h.imgId))

  // Sorted by (imgId, patchId) so per-image blocks are contiguous.
  private def sortRecords(records: IndexedSeq[PatchRecord]): Array[PatchRecord] =
    records.sortBy(r => (r.imgId, r.patchId)).toArray

  /** Chunk bounds over rows sorted by image: at most `processors` chunks of
    * at least `MinChunkMacs` multiply-adds each at nominal size. Each
    * nominal cut moves forward to the next image boundary, so a chunk may
    * differ from the nominal size by up to one image.
    */
  private[store] def chunkStarts(imgIds: Array[Long], dim: Int, processors: Int): Array[Int] = {
    val n = imgIds.length
    val nChunks = math.max(1L, math.min(processors.toLong, n.toLong * dim / MinChunkMacs)).toInt
    val starts = Array.newBuilder[Int]
    starts += 0
    var last = 0
    for (c <- 1 until nChunks) {
      var s = math.max(last, (n.toLong * c / nChunks).toInt)
      while (s < n && imgIds(s) == imgIds(s - 1)) s += 1
      if (s > last && s < n) { starts += s; last = s }
    }
    starts += n
    starts.result()
  }

  /** A store with the chunk count it would get on `processors` cores. */
  private[store] def withProcessors(records: IndexedSeq[PatchRecord], processors: Int): LocalVectorStore =
    new LocalVectorStore(sortRecords(records), processors)

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
