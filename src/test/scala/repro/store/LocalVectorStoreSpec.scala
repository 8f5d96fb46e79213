package repro.store

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.{Linalg, Rng}
import repro.data.ImageCorpus
import repro.embed.{ClipSim, PatchRecord}

class LocalVectorStoreSpec extends AnyFunSuite {

  private val spec = TestData.tiny()
  private val sf = TestData.OracleSf // 50 images
  private lazy val store = LocalVectorStore.build(spec, sf, multiscale = true)
  private lazy val coarse = LocalVectorStore.build(spec, sf, multiscale = false)

  private def naiveTop(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
    val metas = ImageCorpus.metasLocal(spec, sf)
    metas.filterNot(m => exclude.contains(m.imgId)).map { m =>
      val ps = ClipSim.patchRecords(spec, m, multiscale = true)
      val scored = ps.map(p => (p.patchId, Linalg.dot(p.vec, q)))
      val best = scored.maxBy(_._2)
      ImageHit(m.imgId, best._1, best._2)
    }.sortBy(h => (-h.score, h.imgId)).take(k)
  }

  test("store counts are consistent") {
    assert(store.nImages == 50)
    assert(store.nVectors == 500) // 448x448 -> 10 patches each
    assert(coarse.nVectors == 50)
    assert(store.dim == spec.dim)
  }

  test("topImages matches a naive exhaustive scan") {
    for (s <- 0 until 10) {
      val q = Linalg.normalize(Rng.gaussianVector(Rng.key(1, s), spec.dim))
      val got = store.topImages(q, 5)
      val want = naiveTop(q, 5, Set.empty)
      assert(got.map(_.imgId) == want.map(_.imgId), s"seed $s")
      got.zip(want).foreach { case (g, w) =>
        assert(math.abs(g.score - w.score) < 1e-9)
        assert(g.patchId == w.patchId)
      }
    }
  }

  test("scores are descending and imgIds unique") {
    val q = spec.conceptSpace.textEmbedding(0)
    val hits = store.topImages(q, 20)
    assert(hits.map(_.imgId).distinct.size == hits.size)
    hits.sliding(2).foreach { case Seq(a, b) =>
      assert(a.score >= b.score || (a.score == b.score && a.imgId < b.imgId))
    case _ => ()
    }
  }

  test("exclusion removes images from results") {
    val q = spec.conceptSpace.textEmbedding(1)
    val first = store.topImages(q, 3).map(_.imgId).toSet
    val next = store.topImages(q, 3, exclude = first)
    assert(next.map(_.imgId).toSet.intersect(first).isEmpty)
    // And the next results are exactly ranks 4..6 of the unexcluded ranking.
    val all = store.topImages(q, 6).map(_.imgId)
    assert(next.map(_.imgId) == all.drop(3))
  }

  test("k larger than the image count returns every image") {
    val q = spec.conceptSpace.textEmbedding(2)
    assert(store.topImages(q, 1000).size == 50)
  }

  test("rankAllImages returns a full permutation") {
    val q = spec.conceptSpace.textEmbedding(3)
    val ranks = store.topImages(q, store.nImages.toInt)
    assert(ranks.map(_.imgId).sorted == (0L until 50L))
  }

  test("multiscale image score is the max over its patches") {
    val q = Linalg.normalize(Rng.gaussianVector(9L, spec.dim))
    val hit = store.topImages(q, 1).head
    val patches = ClipSim.patchRecords(spec, ImageCorpus.imageMeta(spec, hit.imgId), multiscale = true)
    val best = patches.map(p => Linalg.dot(p.vec, q)).max
    assert(math.abs(hit.score - best) < 1e-9)
  }

  test("dimension mismatch is rejected") {
    assertThrows[IllegalArgumentException](store.topImages(new Array[Float](3), 1))
  }

  test("k must be positive") {
    val q = Linalg.normalize(Rng.gaussianVector(2L, spec.dim))
    assertThrows[IllegalArgumentException](store.topImages(q, 0))
  }

  test("a non-finite query is rejected") {
    for (bad <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity); s <- Seq(store, big)) {
      val q = Linalg.normalize(Rng.gaussianVector(3L, s.dim))
      q(5) = bad
      assertThrows[IllegalArgumentException](s.topImages(q, 1))
    }
  }

  test("coarse store equals multiscale store restricted to patch 0") {
    val q = Linalg.normalize(Rng.gaussianVector(5L, spec.dim))
    val coarseHits = coarse.topImages(q, 10)
    // Recompute via the patch-0 vectors of the multiscale embedding.
    val expected = (0L until 50L).map { id =>
      val p0 = ClipSim.patchRecords(spec, ImageCorpus.imageMeta(spec, id), multiscale = true).head
      ImageHit(id, 0, Linalg.dot(p0.vec, q))
    }.sortBy(h => (-h.score, h.imgId)).take(10)
    assert(coarseHits.map(_.imgId) == expected.map(_.imgId))
    coarseHits.zip(expected).foreach { case (a, b) => assert(math.abs(a.score - b.score) < 1e-9) }
  }

  // A store above the split minimum: 7,000 images of 1 to 19 random 128-d
  // patches, cut as on 4 cores. Every 50th image of the second half repeats
  // the vectors of the image 3,500 ids earlier, so equal scores meet in the
  // merge from different chunks.
  private val BigImages = 7000
  private lazy val big = {
    val records = (0 until BigImages).flatMap { img =>
      val src = if (img >= BigImages / 2 && img % 50 == 0) img - BigImages / 2 else img
      (0 until 1 + src * 7 % 19).map { p =>
        PatchRecord(img.toLong, p, 0, 0, 1, 1, Rng.gaussianVector(Rng.key(77, src.toLong, p.toLong), 128))
      }
    }
    LocalVectorStore.withProcessors(records, processors = 4)
  }

  /** The single pass the split scan must reproduce: every row in order,
    * scored with Linalg.dot, the first best patch of each image kept.
    */
  private def onePass(s: LocalVectorStore, q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
    val best = scala.collection.mutable.LinkedHashMap.empty[Long, ImageHit]
    for (i <- s.vecs.indices if !exclude.contains(s.imgIds(i))) {
      val score = Linalg.dot(s.vecs(i), q)
      val prev = best.get(s.imgIds(i))
      if (prev.forall(score > _.score)) best(s.imgIds(i)) = ImageHit(s.imgIds(i), s.patchIds(i), score)
    }
    best.values.toIndexedSeq.sortBy(h => (-h.score, h.imgId)).take(k)
  }

  private def assertSameHits(got: IndexedSeq[ImageHit], want: IndexedSeq[ImageHit], clue: String): Unit = {
    assert(got.map(_.imgId) == want.map(_.imgId), clue)
    assert(got.map(_.patchId) == want.map(_.patchId), clue)
    assert(got.map(_.score) == want.map(_.score), clue) // exact, not a tolerance
  }

  private def bigQuery(s: Int): Array[Float] =
    if (s % 2 == 0) Linalg.normalize(Rng.gaussianVector(Rng.key(78, s.toLong), 128))
    else big.vecs(s * 997 % big.vecs.length) // a stored patch: its image scores highest

  test("chunks start on image boundaries and cover the rows in order") {
    assert(big.nVectors * big.dim >= 4 * LocalVectorStore.MinChunkMacs)
    assert(big.nChunks == 4)
    assert(store.nChunks == 1 && coarse.nChunks == 1)
    val starts = big.chunkStarts
    assert(starts.head == 0 && starts.last == big.vecs.length)
    assert(starts.sliding(2).forall { case Array(a, b) => a < b })
    starts.init.tail.foreach(s => assert(big.imgIds(s) != big.imgIds(s - 1), s"chunk start $s splits an image"))
  }

  test("the split scan equals a one-pass scan bit for bit") {
    val boundaryImages = big.chunkStarts.init.tail.flatMap(s => Seq(big.imgIds(s - 1), big.imgIds(s))).toSet
    assert(boundaryImages.size == 2 * (big.nChunks - 1))
    for {
      s <- 0 until 6
      k <- Seq(1, 7, big.nImages.toInt + 5)
      exclude <- Seq(Set.empty[Long], boundaryImages)
    } {
      val q = bigQuery(s)
      val got = big.topImages(q, k, exclude)
      val want = onePass(big, q, k, exclude)
      assert(got.size == math.min(k, big.nImages.toInt - exclude.size))
      assertSameHits(got, want, s"query $s k $k excluded ${exclude.size}")
    }
  }

  test("equal scores from different chunks merge by ascending imgId") {
    val dup = BigImages / 2 + 50 // repeats image 50, which sits in another chunk
    val q = big.vecs(big.imgIds.indexOf(dup.toLong))
    val top = big.topImages(q, 2)
    assert(top.map(_.imgId) == Seq(50L, dup.toLong))
    assert(top(0).score == top(1).score)
  }

  test("one store is safe to share across threads") {
    val calls = for (s <- 0 until 8; k <- Seq(1, 7)) yield (bigQuery(s), k, (0 until s).map(_.toLong * 101).toSet)
    val want = calls.map { case (q, k, ex) => big.topImages(q, k, ex) }
    val pool = Executors.newFixedThreadPool(8)
    try {
      val start = new CountDownLatch(1)
      val futures = (0 until 8).map { t =>
        pool.submit(new Callable[Boolean] {
          def call(): Boolean = {
            start.await()
            (0 until 5).forall { rep =>
              calls.indices.forall { c =>
                val i = (c + t + rep) % calls.size
                val (q, k, ex) = calls(i)
                big.topImages(q, k, ex) == want(i)
              }
            }
          }
        })
      }
      start.countDown()
      futures.foreach(f => assert(f.get(120, TimeUnit.SECONDS)))
    } finally pool.shutdownNow()
  }

  test("a store round-trips through Java serialization") {
    def roundTrip(s: LocalVectorStore): LocalVectorStore = {
      val bytes = new ByteArrayOutputStream()
      val out = new ObjectOutputStream(bytes)
      out.writeObject(s); out.close()
      new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[LocalVectorStore]
    }
    for (original <- Seq(big, store)) {
      val copy = roundTrip(original)
      assert(copy.chunkStarts.sameElements(original.chunkStarts))
      for (s <- 0 until 4; k <- Seq(1, 7)) {
        val q = Linalg.normalize(Rng.gaussianVector(Rng.key(79, s.toLong), original.dim))
        val exclude = original.topImages(q, 2).map(_.imgId).toSet
        assertSameHits(copy.topImages(q, k, exclude), original.topImages(q, k, exclude), s"query $s k $k")
      }
    }
  }

  test("empty store is rejected") {
    assertThrows[IllegalArgumentException](new LocalVectorStore(IndexedSeq.empty))
  }
}
