package repro.store

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.{Linalg, Rng}
import repro.data.ImageCorpus
import repro.embed.ClipSim

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

  test("empty store is rejected") {
    assertThrows[IllegalArgumentException](new LocalVectorStore(IndexedSeq.empty))
  }
}
