package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.{Reference, TestData}
import repro.core.{Example, Linalg, LossFunction, QueryAligner}
import repro.data.DatasetSpec
import repro.embed.ClipSim
import repro.graph.{DbAlign, DbAlignMatrix}
import repro.store.LocalVectorStore

/** Pins `QueryAligner.align`: the raw float bits of every query the aligner
  * returns in fixed few-shot, query-align and SeeSaw sessions on the test
  * corpora hash to constants computed before the aligner's kernels were
  * blocked, so any change to an aligned query shows here. Rounding to float
  * hides most last-bit changes of the double solve, so the raw bits of the
  * loss and its gradient at every aligned query are hashed as well.
  */
class AlignGoldenSpec extends AnyFunSuite {

  /** 64-bit FNV-1a over the eight bytes of each value, low byte first. */
  private def fnv(h0: Long, values: Long*): Long = {
    var h = h0
    for (v <- values; b <- 0 until 8) h = (h ^ ((v >>> (8 * b)) & 0xff)) * 0x100000001b3L
    h
  }

  private val Target = 5
  private val Budget = 30

  /** One vector session as `SearchSession.run` plays it, folding the bits of
    * every aligned query into `h0._1` and those of the loss and gradient at
    * it into `h0._2`; returns both hashes and the trace.
    */
  private def session(store: LocalVectorStore, user: SimulatedUser, cat: Int, method: MethodConfig.Aligned,
      multiscale: Boolean, mD: Option[DbAlignMatrix], h0: (Long, Long)): ((Long, Long), IndexedSeq[Boolean]) = {
    var (h, hl) = h0
    val cfg = method.cfg
    val q0 = user.textEmbedding(cat)
    var q = q0
    val examples = scala.collection.mutable.ArrayBuffer.empty[Example]
    var seen = Set.empty[Long]
    val trace = scala.collection.mutable.ArrayBuffer.empty[Boolean]
    while (trace.count(identity) < Target && trace.length < Budget) {
      val img = store.topImages(q, 1, seen).head.imgId
      seen += img
      trace += user.isRelevant(img, cat)
      if (trace.count(identity) < Target && trace.length < Budget) {
        examples ++= user.labelPatches(ClipSim.patchRecords(user.spec, user.meta(img), multiscale), cat)
        q = QueryAligner.align(q0, examples.toIndexedSeq, cfg, mD)
        h = fnv(h, q.map(v => java.lang.Float.floatToRawIntBits(v).toLong).toSeq: _*)
        val (v, g) = new LossFunction(q0, examples.toIndexedSeq, cfg.lambda, cfg.lambdaC, cfg.lambdaD, mD)
          .valueAndGradient(Linalg.toDouble(q))
        hl = fnv(hl, (v +: g.toSeq).map(java.lang.Double.doubleToRawLongBits): _*)
      }
    }
    ((h, hl), trace.toIndexedSeq)
  }

  test("aligned queries are bit-identical to the single-chain kernels'") {
    // The constants were computed by this test before the kernels were blocked.
    val corpora = Seq[(String, DatasetSpec, Boolean)](
      ("tiny multiscale", TestData.tiny(), true),
      ("tinyCentered coarse 128-d", TestData.tinyCentered(dim = 128), false))
    val methods = Seq(MethodConfig.FewShot, MethodConfig.QueryAlign, MethodConfig.SeeSaw)
    val got = corpora.map { case (name, spec, multiscale) =>
      val store = LocalVectorStore.build(spec, TestData.SmallSf, multiscale)
      val user = new SimulatedUser(spec, TestData.SmallSf)
      // A brute-force graph, so M_D does not depend on the pool size.
      val vecs = store.vecs.toIndexedSeq
      val mD = Some(DbAlign.fromGraphLocal(Reference.knnBruteForce(vecs, 10, 0.5), vecs))
      var h = (0xcbf29ce484222325L, 0xcbf29ce484222325L)
      for (cat <- user.queryCategories.take(4); m <- methods) {
        val (h1, trace) = session(store, user, cat, m, multiscale, mD, h)
        h = h1
        val run = SearchSession.run(store, user, cat, m, multiscale, mD, target = Target, budget = Budget)
        assert(trace == run.trace, s"$name ${m.name} cat $cat: replay differs from SearchSession.run")
      }
      name -> h
    }.toMap
    val expected = Map(
      "tiny multiscale" -> (-4119952814764025269L, -2906774137254613572L),
      "tinyCentered coarse 128-d" -> (6596925184931668550L, 6465810673658443941L))
    assert(got == expected)
  }
}
