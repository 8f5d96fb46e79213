package repro.store

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.{Linalg, Rng}

/** Pins the local store's answers: hits, patch ids and score bits of fixed
  * queries on the test corpora hash to constants computed before the scan
  * was pruned, so any change to what a lookup returns shows here.
  */
class LookupGoldenSpec extends AnyFunSuite {

  /** 64-bit FNV-1a over the eight bytes of each value, low byte first. */
  private def fnv(h0: Long, values: Long*): Long = {
    var h = h0
    for (v <- values; b <- 0 until 8) h = (h ^ ((v >>> (8 * b)) & 0xff)) * 0x100000001b3L
    h
  }

  test("lookups are bit-identical to the full scan's") {
    // The constants were computed by this test on the full-scan store.
    val corpora = Seq(
      ("tiny multiscale", TestData.tiny(), true),
      ("tiny coarse", TestData.tiny(), false),
      ("tinyCentered coarse", TestData.tinyCentered(), false))
    val got = corpora.map { case (name, spec, multiscale) =>
      val store = LocalVectorStore.build(spec, TestData.SmallSf, multiscale)
      val random = (0 until 8).map(s => Linalg.normalize(Rng.gaussianVector(Rng.key(91, s.toLong), spec.dim)))
      val stored = (0 until 8).map(s => store.vecs(s * 997 % store.vecs.length))
      var h = 0xcbf29ce484222325L
      for (q <- random ++ stored; k <- Seq(1, 10); exclude <- Seq(Set.empty[Long], (0L until 200L by 7).toSet)) {
        for (hit <- store.topImages(q, k, exclude))
          h = fnv(h, hit.imgId, hit.patchId.toLong, java.lang.Double.doubleToRawLongBits(hit.score))
      }
      name -> h
    }.toMap
    val expected = Map(
      "tiny multiscale" -> 1083101746900792158L,
      "tiny coarse" -> -2190959674867706752L,
      "tinyCentered coarse" -> -6137521117590015592L)
    assert(got == expected)
  }
}
