package repro.store

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import repro.{Reference, SparkSpec, TestData}
import repro.core.{Linalg, Rng}
import repro.data.ImageCorpus
import repro.embed.{ClipSim, PatchRecord}

/** The pruned scan against a brute-force reference, on corpus data and on
  * data built to break a bound: duplicate rows, exact ties, rows with no
  * residual, extreme magnitudes, and every exclusion and k edge case.
  */
class PrefixScanSpec extends SparkSpec {

  private def rec(img: Long, patch: Int, v: Array[Float]) = PatchRecord(img, patch, 0, 0, 1, 1, v)

  private def gauss(key: Long, dim: Int): Array[Float] = Rng.gaussianVector(key, dim)

  private val spec = TestData.tiny()

  /** 200 multiscale images of 10 patches at dim 64. */
  private lazy val corpus: IndexedSeq[PatchRecord] =
    ImageCorpus.metasLocal(spec, TestData.SmallSf).flatMap(m => ClipSim.patchRecords(spec, m, multiscale = true))

  /** 300 images of 1 to 6 patches; every third image repeats the rows of
    * another image, so equal rows and equal scores sit in different images.
    */
  private lazy val duplicates: IndexedSeq[PatchRecord] = (0 until 300).flatMap { img =>
    val src = if (img % 3 == 2) img / 3 else img
    (0 until 1 + src % 6).map(p => rec(img.toLong, p, gauss(Rng.key(31, src.toLong, p.toLong), 64)))
  }

  /** 200 images whose rows share a first coordinate from four values but
    * differ elsewhere: against e_0 many different rows score exactly equal.
    */
  private lazy val ties: IndexedSeq[PatchRecord] = (0 until 200).flatMap { img =>
    (0 until 3).map { p =>
      val v = gauss(Rng.key(32, img.toLong, p.toLong), 64)
      v(0) = Array(0.5f, 0.25f, -0.5f, 1.0f)((img + p) % 4)
      rec(img.toLong, p, v)
    }
  }

  /** Rows inside an 8-dimensional coordinate subspace: the basis spans them,
    * so every residual is zero up to rounding.
    */
  private lazy val inSpan: IndexedSeq[PatchRecord] = (0 until 150).flatMap { img =>
    (0 until 4).map { p =>
      val v = new Array[Float](64)
      val g = gauss(Rng.key(33, img.toLong, p.toLong), 8)
      System.arraycopy(g, 0, v, 0, 8)
      rec(img.toLong, p, v)
    }
  }

  /** Dimension below the basis size, and not a multiple of four: the basis
    * is the whole space.
    */
  private lazy val narrow: IndexedSeq[PatchRecord] = (0 until 120).flatMap { img =>
    (0 until 1 + img % 3).map(p => rec(img.toLong, p, gauss(Rng.key(34, img.toLong, p.toLong), 22)))
  }

  /** Rows and queries scaled far from unit norm. */
  private def scaled(records: IndexedSeq[PatchRecord], by: Float): IndexedSeq[PatchRecord] =
    records.map(r => r.copy(vec = r.vec.map(_ * by)))

  private lazy val stores: Seq[(String, IndexedSeq[PatchRecord])] = Seq(
    "corpus" -> corpus, "duplicates" -> duplicates, "ties" -> ties, "inSpan" -> inSpan, "narrow" -> narrow,
    "tiny magnitudes" -> scaled(duplicates, 1e-18f), "huge magnitudes" -> scaled(duplicates, 1e18f))

  /** Random, stored-row, negated-row and axis queries, some far from unit norm. */
  private def queries(records: IndexedSeq[PatchRecord]): Seq[Array[Float]] = {
    val dim = records.head.vec.length
    val axis = new Array[Float](dim); axis(0) = 1f
    (0 until 4).map(s => Linalg.normalize(gauss(Rng.key(35, s.toLong), dim))) ++
      Seq(gauss(Rng.key(36, 0L), dim).map(_ * 1e-12f), gauss(Rng.key(36, 1L), dim).map(_ * 1e12f)) ++
      Seq(records(records.length / 3).vec, records(records.length - 1).vec, records(7).vec.map(-_), axis)
  }

  private def bits(hits: IndexedSeq[ImageHit]): IndexedSeq[(Long, Int, Long)] =
    hits.map(h => (h.imgId, h.patchId, java.lang.Double.doubleToRawLongBits(h.score)))

  /** Every k and exclusion edge case, against the reference. */
  private def assertMatchesReference(store: VectorStore, records: IndexedSeq[PatchRecord], clue: String): Unit = {
    val images = records.map(_.imgId).distinct
    for ((q, qi) <- queries(records).zipWithIndex) {
      val top2 = Reference.topImages(records, q, 2, Set.empty).map(_.imgId).toSet
      val excludes = Seq(
        Set.empty[Long], top2, images.filter(_ % 3 == 0).toSet, images.drop(2).toSet, images.toSet)
      for (k <- Seq(1, 10, images.size + 3); ex <- excludes) {
        val want = Reference.topImages(records, q, k, ex)
        assert(want.size == math.min(k, images.size - ex.size))
        assert(bits(store.topImages(q, k, ex)) == bits(want), s"$clue query $qi k $k excluded ${ex.size}")
      }
    }
  }

  test("the pruned scan equals a brute-force scan bit for bit") {
    for ((name, records) <- stores) assertMatchesReference(new LocalVectorStore(records), records, name)
  }

  test("every row's score is at most its prefix bound plus the margin") {
    for ((name, records) <- stores :+ ("many rows" -> manyRows)) {
      val store = new LocalVectorStore(records)
      for ((q, qi) <- queries(records).zipWithIndex) {
        val qb = store.prefix.query(q)
        val bounds = store.prefix.bounds(qb, 0, store.vecs.length)
        for (i <- store.vecs.indices) {
          val score = Linalg.dot(store.vecs(i), q)
          assert(score <= bounds(i) + qb.margin, s"$name query $qi row $i")
        }
      }
    }
  }

  test("bounds over any sub-range equal the full range's and the one-row reference's") {
    import java.lang.Double.{doubleToRawLongBits => raw}
    val n = PrefixTable.BlockRows
    val tables = Seq(
      "narrow" -> narrow.map(_.vec).toArray,
      "three rows" -> duplicates.take(3).map(_.vec).toArray) ++
      Seq(n - 1, n + 1, 2 * n - 1, 2 * n + 1).map(rows => s"$rows rows" -> Array.tabulate(rows)(i => gauss(Rng.key(39, i.toLong), 24)))
    for ((name, vecs) <- tables) {
      val t = PrefixTable.build(vecs)
      val rows = vecs.length
      val ranges = Seq((0, rows), (1, rows), (0, rows - 1), (3, math.min(rows, 9)), (rows / 2, rows / 2 + 1),
        (rows - 1, rows), (rows, rows), (math.min(rows, n - 3), math.min(rows, n + 2)),
        (math.min(rows, 5), math.min(rows, 2 * n - 7)), (math.min(rows, n), rows)).filter { case (a, b) => a <= b }
      val dim = vecs(0).length
      val qs = (0 until 3).map(s => Linalg.normalize(gauss(Rng.key(35, s.toLong), dim))) ++
        Seq(vecs(0), vecs(rows - 1).map(-_), gauss(Rng.key(36, 1L), dim).map(_ * 1e12f))
      for ((q, qi) <- qs.zipWithIndex) {
        val qb = t.query(q)
        val full = t.bounds(qb, 0, rows)
        assert(full.length == rows)
        for (i <- 0 until rows)
          assert(raw(full(i)) == raw(Reference.prefixBound(t, i, qb)), s"$name query $qi row $i")
        for ((a, b) <- ranges) {
          val sub = t.bounds(qb, a, b)
          assert(sub.length == b - a)
          for (i <- a until b) assert(raw(sub(i - a)) == raw(full(i)), s"$name query $qi range [$a, $b) row $i")
        }
      }
    }
  }

  test("on corpus data the bound rules out most rows for k = 1") {
    val store = new LocalVectorStore(corpus)
    val ruledOut = (0 until 20).map { s =>
      val q = if (s % 2 == 0) Linalg.normalize(gauss(Rng.key(37, s.toLong), spec.dim)) else spec.conceptSpace.textEmbedding(s % spec.nCats)
      val qb = store.prefix.query(q)
      val best = store.topImages(q, 1).head.score
      store.prefix.bounds(qb, 0, store.vecs.length).count(_ + qb.margin < best).toDouble / store.vecs.length
    }
    assert(ruledOut.sum / ruledOut.size > 0.5, ruledOut)
  }

  /** 7,000 images of 1 to 19 rows at 128-d, enough for four chunks on four
    * processors and for many blocks of codes; rows repeat a pool of 3,000
    * vectors at four scales, so equal rows and scores meet across chunks.
    */
  private lazy val manyRows: IndexedSeq[PatchRecord] = {
    val pool = (0 until 3000).map(i => gauss(Rng.key(38, i.toLong), 128))
    (0 until 7000).flatMap { img =>
      (0 until 1 + img * 7 % 19).map(p => rec(img.toLong, p, pool((img * 31 + p * 17) % 3000).map(_ * (1 + img % 4 * 0.25f))))
    }
  }

  test("results do not depend on the chunk count") {
    val records = manyRows
    assert(records.length.toLong * 128 >= 4 * LocalVectorStore.MinChunkMacs)
    val byProcessors = (1 to 4).map(p => LocalVectorStore.withProcessors(records, p))
    assert(byProcessors.map(_.nChunks) == (1 to 4))
    for ((q, qi) <- queries(records).zipWithIndex; k <- Seq(1, 10); ex <- Seq(Set.empty[Long], Set(0L, 3500L, 6999L))) {
      val want = bits(Reference.topImages(records, q, k, ex))
      byProcessors.foreach(s => assert(bits(s.topImages(q, k, ex)) == want, s"chunks ${s.nChunks} query $qi k $k"))
    }
  }

  test("a serialized store answers as the reference") {
    for ((name, records) <- stores.take(3)) {
      val bytes = new ByteArrayOutputStream()
      val out = new ObjectOutputStream(bytes)
      out.writeObject(new LocalVectorStore(records)); out.close()
      val copy = new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[LocalVectorStore]
      assertMatchesReference(copy, records, s"$name copy")
    }
  }

  test("the Spark store's partition stores answer as the reference") {
    import spark.implicits._
    for ((name, records) <- Seq("duplicates" -> duplicates, "ties" -> ties, "inSpan" -> inSpan)) {
      val df = records.map(r => (r.imgId, r.patchId, r.vec)).toDF("img_id", "patch_id", "vec")
      val store = SparkVectorStore.fromDataFrame(spark, df, records.head.vec.length)
      try assertMatchesReference(store, records, s"$name on Spark") finally store.unpersist()
    }
  }
}
