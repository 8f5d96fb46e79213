package repro.store

import java.util.concurrent.atomic.AtomicLong

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
  * A lookup scores exactly only the rows that a principal-prefix bound
  * (`PrefixTable`, built with the store) cannot rule out; see `scanChunk`.
  * Every scored row sums a(j).toDouble * q(j) in index order, exactly as
  * `Linalg.dot`, so hits and scores are those of a full scan bit for bit.
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
  * chunk bounds and the prefix table are fixed when the store is built and
  * travel with it when it is serialized.
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

  /** Row offsets of the scan chunks: chunk c covers rows
    * [chunkStarts(c), chunkStarts(c + 1)), and the last entry is `vecs.length`.
    */
  private[store] val chunkStarts: Array[Int] = LocalVectorStore.chunkStarts(imgIds, dim, processors)

  private[store] def nChunks: Int = chunkStarts.length - 1

  /** Row offsets of the images: image m covers rows [imgStarts(m), imgStarts(m + 1)). */
  private val imgStarts: Array[Int] =
    (0 +: (1 until vecs.length).filter(i => imgIds(i) != imgIds(i - 1)) :+ vecs.length).toArray

  override val nImages: Long = (imgStarts.length - 1).toLong

  /** The id of each image, ascending. */
  private val imageIds: Array[Long] = imgStarts.init.map(i => imgIds(i))

  /** First image of each chunk; the last entry is `nImages`. */
  private val chunkImages: Array[Int] = chunkStarts.map(java.util.Arrays.binarySearch(imgStarts, _))

  private[store] val prefix: PrefixTable = PrefixTable.build(vecs)

  override def topImages(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
    require(q.length == dim, s"query dim ${q.length} != store dim $dim")
    require(k > 0, "k must be positive")
    require(q.forall(v => !v.isNaN && !v.isInfinite), "query has a non-finite component")
    val qb = prefix.query(q)
    // The indices of the excluded images in the store.
    val excluded = exclude.iterator.map(java.util.Arrays.binarySearch(imageIds, _)).filter(_ >= 0).toArray
    val bar = new AtomicLong(java.lang.Double.doubleToRawLongBits(Double.NegativeInfinity))
    if (nChunks == 1) scanChunk(0, q, qb, k, excluded, bar).toIndexedSeq
    else {
      val perChunk = new Array[Array[ImageHit]](nChunks)
      java.util.stream.IntStream.range(0, nChunks).parallel().forEach { c =>
        perChunk(c) = scanChunk(c, q, qb, k, excluded, bar)
      }
      perChunk.flatten.sorted(BestFirst).take(k).toIndexedSeq
    }
  }

  /** Top-k unexcluded images of chunk `c`, best first; `excluded` holds
    * image indices.
    *
    * Pass 1 computes the prefix bound of every row of the chunk at once
    * (`PrefixTable.bounds`), bounds every unexcluded image by the largest
    * bound of its rows, and keeps the k images of highest bound. Pass 2
    * scores those seed images exactly, then visits the other images in row
    * order and scores exactly only the rows whose bound reaches τ − margin.
    * τ is the highest k-th best score any chunk of this lookup has found so
    * far (`bar`), so it rises as better images are found, here or in another
    * chunk, and is always at or below the k-th best score of the whole
    * store. A skipped row's score is strictly below τ, so every image of the
    * store's top-k has its best row scored (with any row tied with it), and
    * an image whose best row was skipped ranks below all of them. The merged
    * result is the full scan's, bit for bit, whatever the chunks' timing.
    */
  private def scanChunk(c: Int, q: Array[Float], qb: PrefixTable.Query, k: Int, excluded: Array[Int],
      bar: AtomicLong): Array[ImageHit] = {
    val first = chunkImages(c)
    val last = chunkImages(c + 1)
    val from = chunkStarts(c)
    // Row bounds: entry i - from is row i's.
    val rowBound = prefix.bounds(qb, from, chunkStarts(c + 1))
    // Image bounds; NaN, which no threshold reaches, marks an image excluded
    // or already scored.
    val imgBound = new Array[Double](last - first)
    excluded.foreach(m => if (m >= first && m < last) imgBound(m - first) = Double.NaN)
    // The k images of highest bound, as hits of (image index, bound).
    val seeds = LocalVectorStore.topK()
    var m = first
    while (m < last) {
      if (!java.lang.Double.isNaN(imgBound(m - first))) {
        var b = Double.NegativeInfinity
        var i = imgStarts(m)
        while (i < imgStarts(m + 1)) { b = math.max(b, rowBound(i - from)); i += 1 }
        imgBound(m - first) = b
        LocalVectorStore.offer(seeds, k, m, 0, b)
      }
      m += 1
    }
    val top = LocalVectorStore.topK()
    seeds.foreach { s =>
      val seed = s.imgId.toInt
      scoreImage(top, k, seed, q, rowBound, from, Double.NegativeInfinity)
      imgBound(seed - first) = Double.NaN
    }
    m = first
    while (m < last) {
      if (top.size == k) LocalVectorStore.raise(bar, top.head.score)
      val lim = java.lang.Double.longBitsToDouble(bar.get) - qb.margin
      if (imgBound(m - first) >= lim) scoreImage(top, k, m, q, rowBound, from, lim)
      m += 1
    }
    top.dequeueAll.reverse.toArray
  }

  /** Offer image `m` to `top` with its best score over the rows whose bound
    * (`rowBound(i - from)` for row i) reaches `lim`, each scored with
    * `Linalg.dot` in row order, the first best row kept. At `lim` = −∞ every
    * row is scored; otherwise the image's bound reaches `lim`, so at least
    * its row of highest bound is.
    */
  private def scoreImage(top: LocalVectorStore.TopK, k: Int, m: Int, q: Array[Float], rowBound: Array[Double],
      from: Int, lim: Double): Unit = {
    var best = Double.NegativeInfinity
    var bestPatch = -1
    var i = imgStarts(m)
    while (i < imgStarts(m + 1)) {
      if (lim == Double.NegativeInfinity || rowBound(i - from) >= lim) {
        val s = Linalg.dot(vecs(i), q)
        if (s > best) { best = s; bestPatch = patchIds(i) }
      }
      i += 1
    }
    LocalVectorStore.offer(top, k, imageIds(m), bestPatch, best)
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

  /** A top-k under `BestFirst`; its head is the worst kept hit. */
  private type TopK = scala.collection.mutable.PriorityQueue[ImageHit]

  private def topK(): TopK = scala.collection.mutable.PriorityQueue.empty[ImageHit](BestFirst)

  /** Raise the shared bar (a double's bits) to `score` if it is higher. */
  private def raise(bar: AtomicLong, score: Double): Unit = {
    var cur = bar.get
    while (score > java.lang.Double.longBitsToDouble(cur) &&
        !bar.compareAndSet(cur, java.lang.Double.doubleToRawLongBits(score))) cur = bar.get
  }

  /** Keep (img, patch, score) if `top` has fewer than k hits or it beats the
    * worst under `BestFirst`.
    */
  private def offer(top: TopK, k: Int, img: Long, patch: Int, score: Double): Unit =
    if (top.size < k) top.enqueue(ImageHit(img, patch, score))
    else {
      val worst = top.head
      if (score > worst.score || (score == worst.score && img < worst.imgId)) {
        top.dequeue(); top.enqueue(ImageHit(img, patch, score))
      }
    }

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
