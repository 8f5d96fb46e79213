package repro.integration

import org.scalatest.funsuite.AnyFunSuite
import repro.{Reference, TestData}
import repro.core._
import repro.data.ImageCorpus
import repro.embed.ClipSim
import repro.store.LocalVectorStore

/** Reproduces the qualitative claim of paper §3.1 / Figure 4: CLIP-like
  * embeddings have high *concept locality* (an "ideal" linear query vector
  * fit on full labels ranks nearly perfectly) while the initial text query
  * suffers *alignment* deficits — so improving alignment alone can close
  * most of the gap.
  */
class IdealVectorSpec extends AnyFunSuite {

  private val spec = TestData.tiny()
  private val sf = TestData.SmallSf
  private lazy val store = LocalVectorStore.build(spec, sf, multiscale = false)
  private lazy val metas = ImageCorpus.metasLocal(spec, sf)

  /** Overfit linear model on all coarse vectors (the paper's ideal vector):
    * the few-shot loss with a tiny norm penalty, minimized from q₀ with a
    * larger iteration cap than the interactive aligner allows.
    */
  private def idealVector(cat: Int): Array[Float] = {
    val examples = metas.map { m =>
      Example(ClipSim.patchRecords(spec, m, multiscale = false).head.vec, m.objects.exists(_.cat == cat))
    }
    val q0 = spec.conceptSpace.textEmbedding(cat)
    val loss = new LossFunction(q0, examples, lambda = 0.01, lambdaC = 0.0, lambdaD = 0.0, mD = None)
    val w = LBFGS.minimize(loss, Linalg.toDouble(Linalg.normalize(q0)), maxIters = 200, gradTol = 1e-5).x
    if (Linalg.normD(w) < 1e-9) Linalg.normalize(q0) else Linalg.toFloat(Linalg.normalizeD(w))
  }

  private def apOf(q: Array[Float], cat: Int): Double = {
    val relevant = Reference.relevantImages(spec, sf, cat)
    val ranked = store.topImages(q, metas.size)
    Metrics.averagePrecision(ranked.map(h => relevant.contains(h.imgId)), relevant.size.toLong)
  }

  private lazy val cats = (0 until spec.nCats)
    .filter(c => Reference.relevantImages(spec, sf, c).size >= 3)

  test("ideal vectors beat the initial text query on average (Fig. 4 above-diagonal)") {
    val pairs = cats.map { c =>
      (apOf(idealVector(c), c), apOf(spec.conceptSpace.textEmbedding(c), c))
    }
    val idealMean = Metrics.mean(pairs.map(_._1))
    val initialMean = Metrics.mean(pairs.map(_._2))
    assert(idealMean > initialMean + 0.15, s"ideal $idealMean initial $initialMean")
  }

  test("ideal vectors achieve high AP (high concept locality)") {
    val aps = cats.map(c => apOf(idealVector(c), c))
    val median = aps.sorted.apply(aps.size / 2)
    assert(median > 0.7, s"median ideal AP $median (all: $aps)")
  }

  test("misaligned categories have low initial AP but high ideal AP") {
    val cs = spec.conceptSpace
    val misaligned = cats.filter(cs.alignmentDeficit(_) > 0.8)
    assert(misaligned.nonEmpty, "test spec must include misaligned categories")
    misaligned.foreach { c =>
      val initial = apOf(cs.textEmbedding(c), c)
      val ideal = apOf(idealVector(c), c)
      assert(ideal >= initial - 1e-9, s"cat $c: ideal $ideal < initial $initial")
    }
    val gap = Metrics.mean(misaligned.map(c => apOf(idealVector(c), c) - apOf(cs.textEmbedding(c), c)))
    assert(gap > 0.2, s"mean gap $gap")
  }

  test("well-aligned categories already have decent initial AP") {
    val cs = spec.conceptSpace
    val aligned = cats.filter(cs.alignmentDeficit(_) < 0.15)
    assert(aligned.nonEmpty)
    val mean = Metrics.mean(aligned.map(c => apOf(cs.textEmbedding(c), c)))
    assert(mean > 0.4, s"aligned-category initial AP $mean")
  }
}
