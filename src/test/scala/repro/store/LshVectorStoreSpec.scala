package repro.store

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.{Linalg, Metrics, Rng}
import repro.data.ImageCorpus
import repro.embed.ClipSim

class LshVectorStoreSpec extends AnyFunSuite {

  private val spec = TestData.tiny()
  private val sf = TestData.SmallSf // 200 images
  private lazy val records = ImageCorpus.metasLocal(spec, sf)
    .flatMap(m => ClipSim.patchRecords(spec, m, multiscale = true))
  private lazy val exact = new LocalVectorStore(records)
  private lazy val lsh = new LshVectorStore(records, nTables = 16, nBits = 10)

  test("store counts match the exact store") {
    assert(lsh.nVectors == exact.nVectors)
    assert(lsh.nImages == exact.nImages)
  }

  test("results are valid hits with correct scores") {
    val q = spec.conceptSpace.textEmbedding(0)
    lsh.topImages(q, 10).foreach { h =>
      val p = records.find(r => r.imgId == h.imgId && r.patchId == h.patchId).get
      assert(math.abs(Linalg.dot(p.vec, q) - h.score) < 1e-9)
    }
  }

  test("recall@10 vs exact scan is high (Annoy stand-in accuracy, §2.2)") {
    val recalls = (0 until spec.nCats).map { cat =>
      val q = spec.conceptSpace.textEmbedding(cat)
      val truth = exact.topImages(q, 10).map(_.imgId).toSet
      val got = lsh.topImages(q, 10).map(_.imgId).toSet
      got.intersect(truth).size.toDouble / truth.size
    }
    val mean = recalls.sum / recalls.size
    assert(mean > 0.8, s"mean recall $mean (per-query: $recalls)")
  }

  test("top-1 is usually the exact top-1") {
    val hits = (0 until spec.nCats).count { cat =>
      val q = spec.conceptSpace.textEmbedding(cat)
      lsh.topImages(q, 1).head.imgId == exact.topImages(q, 1).head.imgId
    }
    assert(hits >= spec.nCats * 7 / 10, s"top-1 agreement $hits/${spec.nCats}")
  }

  test("scores are descending, images unique, exclusion respected") {
    val q = spec.conceptSpace.textEmbedding(1)
    val first = lsh.topImages(q, 5).map(_.imgId).toSet
    val next = lsh.topImages(q, 5, exclude = first)
    assert(next.map(_.imgId).toSet.intersect(first).isEmpty)
    next.sliding(2).foreach {
      case Seq(a, b) => assert(a.score >= b.score)
      case _ => ()
    }
  }

  test("approximate store loses little AP vs exact scan (paper's claim)") {
    // Rank all images with q0 greedily from each store; compare AP@10.
    def apOf(store: VectorStore, cat: Int): Double = {
      val q = spec.conceptSpace.textEmbedding(cat)
      val hits = store.topImages(q, 60)
      val relevant = ImageCorpus.relevantImages(spec, sf, cat)
      Metrics.averagePrecision(hits.map(h => relevant.contains(h.imgId)), relevant.size.toLong)
    }
    val cats = (0 until spec.nCats).filter(ImageCorpus.relevantImages(spec, sf, _).nonEmpty)
    val exactAp = Metrics.mean(cats.map(apOf(exact, _)))
    val lshAp = Metrics.mean(cats.map(apOf(lsh, _)))
    assert(lshAp > exactAp - 0.05, s"exact $exactAp lsh $lshAp")
  }

  test("deterministic across instances with the same seed") {
    val l2 = new LshVectorStore(records, nTables = 16, nBits = 10)
    val q = Linalg.normalize(Rng.gaussianVector(3L, spec.dim))
    assert(lsh.topImages(q, 10) == l2.topImages(q, 10))
  }

  test("k must be positive") {
    val q = Linalg.normalize(Rng.gaussianVector(2L, spec.dim))
    assertThrows[IllegalArgumentException](lsh.topImages(q, 0))
    assertThrows[IllegalArgumentException](lsh.topImages(q, -1))
  }

  test("invalid shapes are rejected") {
    assertThrows[IllegalArgumentException](new LshVectorStore(records, nTables = 0))
    assertThrows[IllegalArgumentException](new LshVectorStore(IndexedSeq.empty))
    assertThrows[IllegalArgumentException](lsh.topImages(new Array[Float](2), 1))
  }
}
