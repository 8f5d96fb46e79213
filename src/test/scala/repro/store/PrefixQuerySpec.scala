package repro.store

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.{Linalg, Rng}
import repro.embed.PatchRecord

/** `PrefixTable.query` against a single-chain copy of it: every per-query
  * constant of the bound must keep its bits.
  */
class PrefixQuerySpec extends AnyFunSuite {

  /** The query constants computed one projection at a time, each projection
    * followed by its share of the residual.
    */
  private def referenceQuery(t: PrefixTable, q: Array[Float]): PrefixTable.Query = {
    val (r, dim, basis) = (t.r, t.dim, t.basis)
    val qp = new Array[Double](r)
    val perp = Linalg.toDouble(q)
    var j = 0
    while (j < r) {
      val o = j * dim
      var s = 0.0; var u = 0
      while (u < dim) { s += basis(o + u) * q(u); u += 1 }
      qp(j) = s
      u = 0
      while (u < dim) { perp(u) -= s * basis(o + u); u += 1 }
      j += 1
    }
    val w = Array.tabulate(r)(j => t.scales(j) * qp(j))
    val step = w.foldLeft(0.0)((a, v) => math.max(a, math.abs(v))) / 32767.0
    val weights = w.map(v => if (step > 0) math.round(v / step).toInt else 0)
    var quant = 127.0 * r * step / 2
    j = 0
    while (j < r) { quant += t.scales(j) / 2 * math.abs(qp(j)); j += 1 }
    new PrefixTable.Query(weights, step, t.residStep * Linalg.normD(perp),
      quant + PrefixTable.Slack * t.maxNorm * Linalg.norm(q))
  }

  private def bits(qb: PrefixTable.Query): (Seq[Int], Long, Long, Long) = {
    import java.lang.Double.doubleToRawLongBits
    (qb.weights.toSeq, doubleToRawLongBits(qb.step), doubleToRawLongBits(qb.residWeight),
      doubleToRawLongBits(qb.margin))
  }

  /** A store of dimension 22: the basis is the whole space, and r is not a
    * multiple of four.
    */
  private def narrow: LocalVectorStore = new LocalVectorStore((0 until 120).flatMap { img =>
    (0 until 1 + img % 3).map(p => PatchRecord(img.toLong, p, 0, 0, 1, 1, Rng.gaussianVector(Rng.key(34, img.toLong, p.toLong), 22)))
  })

  test("query constants equal the single-chain computation bit for bit") {
    val stores = Seq(
      "tiny multiscale" -> LocalVectorStore.build(TestData.tiny(), TestData.SmallSf, multiscale = true),
      "tiny coarse" -> LocalVectorStore.build(TestData.tiny(), TestData.SmallSf, multiscale = false),
      "tinyCentered coarse" -> LocalVectorStore.build(TestData.tinyCentered(), TestData.SmallSf, multiscale = false),
      "narrow" -> narrow)
    for ((name, store) <- stores) {
      val dim = store.dim
      val random = (0 until 40).map(s => Rng.gaussianVector(Rng.key(92, s.toLong), dim))
      val scaled = Seq(1e-30f, 1e-6f, 1e6f, 1e30f).map(c => random.head.map(_ * c))
      val stored = (0 until 8).map(s => store.vecs(s * 997 % store.vecs.length))
      val zero = new Array[Float](dim)
      for ((q, qi) <- (random ++ scaled ++ stored :+ zero).zipWithIndex)
        assert(bits(store.prefix.query(q)) == bits(referenceQuery(store.prefix, q)), s"$name query $qi")
    }
  }
}
