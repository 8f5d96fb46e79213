package repro.embed

import org.apache.spark.sql.functions._
import repro.{Oracle, OracleTables, Reference, SparkSpec, TestData}
import repro.core.Linalg
import repro.data.{DatasetSpec, ImageCorpus}

class ClipSimSpec extends SparkSpec {

  private val spec = TestData.tiny()
  private val sf = TestData.SmallSf
  private def meta(id: Long) = ImageCorpus.imageMeta(spec, id)

  test("region embeddings are unit vectors") {
    for (id <- 0L until 20L) {
      val m = meta(id)
      ClipSim.patchRecords(spec, m, multiscale = true).foreach { p =>
        assert(math.abs(Linalg.norm(p.vec) - 1.0) < 1e-5)
      }
    }
  }

  test("embedding is deterministic") {
    val m = meta(3)
    val a = ClipSim.embedRegion(spec, m, Box(0, 0, m.w, m.h))
    val b = ClipSim.embedRegion(spec, m, Box(0, 0, m.w, m.h))
    assert(a.sameElements(b))
  }

  test("different regions of the same image embed differently") {
    val m = meta(5)
    val a = ClipSim.embedRegion(spec, m, Box(0, 0, 224, 224))
    val b = ClipSim.embedRegion(spec, m, Box(224, 224, 448, 448))
    assert(!a.sameElements(b))
  }

  test("instance vectors stay near the category mode prototype") {
    val cs = spec.conceptSpace
    for (id <- 0L until 30L) {
      val m = meta(id)
      m.objects.indices.foreach { i =>
        val o = m.objects(i)
        val v = ClipSim.instanceVector(spec, m, i)
        val cos = Reference.cosine(v, cs.modeProto(o.cat, o.mode))
        // instanceNoise=.3 → cos ≈ 1/sqrt(1+.09) ≈ .96
        assert(cos > 0.9, s"img $id obj $i cos $cos")
      }
    }
  }

  test("patch 0 is the coarse full-image patch") {
    val m = meta(1)
    val ps = ClipSim.patchRecords(spec, m, multiscale = true)
    assert(ps.head.patchId == 0)
    assert(ps.head.box == Box(0, 0, m.w, m.h))
  }

  test("448x448 images produce 10 patches with multiscale, 1 without") {
    val m = meta(2)
    assert(ClipSim.patchRecords(spec, m, multiscale = true).size == 10)
    assert(ClipSim.patchRecords(spec, m, multiscale = false).size == 1)
  }

  test("object dilution: a covering patch scores higher on the category than a disjoint one") {
    val cs = spec.conceptSpace
    var checked = 0
    for (id <- 0L until 60L if checked < 20) {
      val m = meta(id)
      val o = m.objects.head
      val proto = cs.modeProto(o.cat, o.mode)
      val covering = ClipSim.patchRecords(spec, m, multiscale = true)
        .filter(p => p.box.intersectionArea(o.box) / o.box.area > 0.95)
      val disjoint = ClipSim.patchRecords(spec, m, multiscale = true)
        .filter(p => !p.box.overlaps(o.box))
      if (covering.nonEmpty && disjoint.nonEmpty) {
        val cScore = covering.map(p => Linalg.dot(p.vec, proto)).max
        val dScore = disjoint.map(p => Linalg.dot(p.vec, proto)).max
        assert(cScore > dScore, s"img $id: covering $cScore <= disjoint $dScore")
        checked += 1
      }
    }
    assert(checked >= 10, s"only $checked images had both covering and disjoint patches")
  }

  test("small objects are diluted in the coarse embedding vs their best tile") {
    // BDD-like geometry: big frame, small object.
    val bdd = TestData.tiny("bddish", seed = 77).copy(
      imgW = 1280, imgH = 720, objScaleRange = (0.08, 0.15),
      minObjPerImage = 1, maxObjPerImage = 1)
    val cs = bdd.conceptSpace
    var coarseWins = 0; var tileWins = 0
    for (id <- 0L until 40L) {
      val m = ImageCorpus.imageMeta(bdd, id)
      val o = m.objects.head
      val proto = cs.modeProto(o.cat, o.mode)
      val ps = ClipSim.patchRecords(bdd, m, multiscale = true)
      val coarse = Linalg.dot(ps.head.vec, proto)
      val bestTile = ps.tail.filter(_.box.overlaps(o.box)).map(p => Linalg.dot(p.vec, proto)).max
      if (bestTile > coarse) tileWins += 1 else coarseWins += 1
    }
    assert(tileWins > 30, s"tileWins=$tileWins coarseWins=$coarseWins")
  }

  test("relevant images score higher than irrelevant ones under the true prototype") {
    val cs = spec.conceptSpace
    val cat = 0
    val proto = cs.catProto(cat)
    val metas = ImageCorpus.metasLocal(spec, sf)
    def bestScore(m: repro.data.ImageMeta): Double =
      ClipSim.patchRecords(spec, m, multiscale = true).map(p => Linalg.dot(p.vec, proto)).max
    val rel = metas.filter(_.objects.exists(o => o.cat == cat && o.mode == 0)).take(20).map(bestScore)
    val irr = metas.filterNot(_.objects.exists(_.cat == cat)).take(20).map(bestScore)
    assert(rel.nonEmpty && irr.nonEmpty)
    val relMean = rel.sum / rel.size
    val irrMean = irr.sum / irr.size
    assert(relMean > irrMean + 0.05, s"rel $relMean irr $irrMean")
  }

  /** 64-bit FNV-1a over the IEEE bits of every float, in order. */
  private def fnv(h0: Long, v: Array[Float]): Long = {
    var h = h0
    var i = 0
    while (i < v.length) {
      h = (h ^ (java.lang.Float.floatToIntBits(v(i)) & 0xffffffffL)) * 0x100000001b3L
      i += 1
    }
    h
  }

  test("encoder output is bit-identical to the parent's") {
    // Per spec at dim 64: (hash of every multiscale patch vector of images
    // 0..19 in patch order, hash of every category's text embedding). The
    // constants were computed by this test on the encoder before prototypes
    // and instance vectors were cached; any change to the float arithmetic
    // or its order changes them.
    val expected = Map(
      "LVIS" -> (-6359770812609438678L, -6759910812600354972L),
      "ObjNet" -> (-1672265349560970096L, -1516475576392926322L),
      "COCO" -> (-6095032089014096176L, 6488971175279395690L),
      "BDD" -> (8909732917518712563L, -7222853748108761817L),
    )
    val got = DatasetSpec.all(dim = 64).map { s =>
      var patches = 0xcbf29ce484222325L
      for (id <- 0L until 20L; p <- ClipSim.patchRecords(s, ImageCorpus.imageMeta(s, id), multiscale = true))
        patches = fnv(patches, p.vec)
      var text = 0xcbf29ce484222325L
      for (k <- 0 until s.nCats) text = fnv(text, s.conceptSpace.textEmbedding(k))
      s.name -> (patches, text)
    }.toMap
    assert(got == expected)
  }

  test("Spark patchVectors pipeline equals local patchRecords bitwise") {
    val df = ClipSim.patchVectors(spark, spec, TestData.OracleSf, multiscale = true)
    val fromSpark = df.collect().map { r =>
      ((r.getLong(0), r.getInt(1)), (r.getDouble(2), r.getDouble(3), r.getDouble(4), r.getDouble(5),
        r.getSeq[Float](6).toVector))
    }.toMap
    val local = ImageCorpus.metasLocal(spec, TestData.OracleSf)
      .flatMap(m => ClipSim.patchRecords(spec, m, multiscale = true))
    assert(fromSpark.size == local.size)
    local.foreach { p =>
      val (x0, y0, x1, y1, vec) = fromSpark((p.imgId, p.patchId))
      assert((x0, y0, x1, y1) == (p.x0, p.y0, p.x1, p.y1))
      assert(vec == p.vec.toVector)
    }
  }

  test("oracle: patch norms are ~1 in DuckDB over the long format") {
    val long = OracleTables.longPatchVectors(spark, spec, TestData.OracleSf, multiscale = false)
    val sparkNorms = long.groupBy("img_id", "patch_id")
      .agg(round(sum(col("value") * col("value")), 4).as("sq_norm"))
    Oracle.assertEquivalent(
      sparkNorms,
      """SELECT img_id, patch_id,
        |       ROUND(SUM(CAST(value AS DOUBLE) * CAST(value AS DOUBLE)), 4) AS sq_norm
        |FROM vecs GROUP BY img_id, patch_id""".stripMargin,
      "vecs" -> long,
    )
  }
}
