package perfbench

import repro.store.LocalVectorStore

/** Brute-force reference for the store's answers, written independently of
  * the stores: one full scan computes every image's max-patch inner product.
  */
final class BruteForce(local: LocalVectorStore) {
  import BruteForce.Verdict

  private val vecs = local.vecs
  private val imgIds = local.imgIds
  private val nImages = imgIds.max.toInt + 1

  /** Max-patch score of every image id (NegativeInfinity for absent ids). */
  private def imageScores(q: Array[Float]): Array[Double] = {
    val best = Array.fill(nImages)(Double.NegativeInfinity)
    var i = 0
    while (i < vecs.length) {
      val v = vecs(i)
      var s = 0.0
      var d = 0
      while (d < v.length) { s += v(d).toDouble * q(d); d += 1 }
      val img = imgIds(i).toInt
      if (s > best(img)) best(img) = s
      i += 1
    }
    best
  }

  /** The hit must be an unseen image whose reported score is its true
    * max-patch score; top-1 exactness is recorded, not required, so an
    * approximate store stays admissible.
    */
  def check(call: StoreCall): Verdict = {
    val scores = imageScores(call.q)
    var top = -1
    var i = 0
    while (i < nImages) {
      if (!call.exclude.contains(i.toLong) && scores(i) > Double.NegativeInfinity &&
          (top < 0 || scores(i) > scores(top))) top = i
      i += 1
    }
    call.hits.headOption match {
      case None => Verdict(unseen = true, scoreExact = top < 0, top1Exact = top < 0)
      case Some(h) =>
        val truth = if (h.imgId >= 0 && h.imgId < nImages) scores(h.imgId.toInt) else Double.NaN
        Verdict(
          unseen = !call.exclude.contains(h.imgId),
          scoreExact = math.abs(truth - h.score) <= BruteForce.ScoreTolerance,
          top1Exact = h.imgId == top.toLong,
        )
    }
  }
}

object BruteForce {
  /** Outcome of checking one returned top-1 hit. */
  final case class Verdict(unseen: Boolean, scoreExact: Boolean, top1Exact: Boolean) {
    def ok: Boolean = unseen && scoreExact
  }

  /** Scores are sums of the same float products in the same order as the
    * stores compute them; the tolerance only absorbs a reordered sum.
    */
  val ScoreTolerance = 1e-9
}
