package repro.store

import repro.core.{Linalg, Rng}
import repro.embed.PatchRecord

/** Approximate MIPS store: random-hyperplane LSH with exact re-ranking.
  *
  * Stand-in for Annoy (paper §2.2): the paper only relies on the store being
  * *approximately* correct — it reports a minor accuracy drop vs an exact
  * scan, which our store accuracy tests quantify the same way. `nTables`
  * signature tables of `nBits` random hyperplanes each; a lookup collects
  * the union of the query's buckets across tables (plus single-bit
  * multiprobe neighbors when the candidate pool is thin) and re-ranks those
  * candidates exactly.
  */
final class LshVectorStore(
    records: IndexedSeq[PatchRecord],
    nTables: Int = 8,
    nBits: Int = 12,
    seed: Long = 7,
) extends VectorStore with Serializable {
  require(records.nonEmpty, "empty store")
  require(nTables > 0 && nBits > 0 && nBits <= 30, "bad LSH shape")

  private val recs = records.sortBy(r => (r.imgId, r.patchId)).toArray
  override val dim: Int = recs(0).vec.length
  override val nVectors: Long = recs.length.toLong
  override val nImages: Long = recs.iterator.map(_.imgId).toSet.size.toLong

  // One matrix of hyperplanes per table, deterministic in the seed.
  private val planes: Array[Array[Array[Float]]] =
    Array.tabulate(nTables, nBits)((t, b) => Rng.gaussianVector(Rng.key(seed, t, b), dim))

  private def signature(t: Int, v: Array[Float]): Int = {
    var sig = 0; var b = 0
    while (b < nBits) {
      if (Linalg.dot(planes(t)(b), v) >= 0) sig |= (1 << b)
      b += 1
    }
    sig
  }

  // buckets(t): signature -> indices into recs
  private val buckets: Array[Map[Int, Array[Int]]] =
    Array.tabulate(nTables) { t =>
      recs.indices.groupBy(i => signature(t, recs(i).vec)).map { case (s, is) => s -> is.toArray }
    }

  override def topImages(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
    require(q.length == dim, s"query dim ${q.length} != store dim $dim")
    require(k > 0, "k must be positive")
    val cand = candidates(q, minPool = math.max(64, 8 * k))
    val best = scala.collection.mutable.LongMap.empty[ImageHit]
    cand.foreach { i =>
      val r = recs(i)
      if (!exclude.contains(r.imgId)) {
        val s = Linalg.dot(r.vec, q)
        val prev = best.getOrNull(r.imgId)
        if (prev == null || s > prev.score) best(r.imgId) = ImageHit(r.imgId, r.patchId, s)
      }
    }
    best.values.toIndexedSeq.sortBy(h => (-h.score, h.imgId)).take(k)
  }

  /** Candidate patch indices: union of matched buckets, expanding via
    * single-bit multiprobe until the pool reaches `minPool` (or probes run out).
    */
  private def candidates(q: Array[Float], minPool: Int): collection.Set[Int] = {
    val pool = scala.collection.mutable.HashSet.empty[Int]
    val sigs = Array.tabulate(nTables)(t => signature(t, q))
    var t = 0
    while (t < nTables) {
      buckets(t).get(sigs(t)).foreach(pool ++= _)
      t += 1
    }
    var flip = 0
    while (pool.size < minPool && flip < nBits) {
      t = 0
      while (t < nTables && pool.size < minPool) {
        buckets(t).get(sigs(t) ^ (1 << flip)).foreach(pool ++= _)
        t += 1
      }
      flip += 1
    }
    pool
  }
}
