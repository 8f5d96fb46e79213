package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, Reference, SparkSpec, TestData}

class ImageCorpusSpec extends SparkSpec {

  private val spec = TestData.tiny()
  private val sf = TestData.SmallSf

  test("imageMeta is deterministic") {
    val a = ImageCorpus.imageMeta(spec, 7L)
    val b = ImageCorpus.imageMeta(spec, 7L)
    assert(a == b)
  }

  test("different images differ") {
    assert(ImageCorpus.imageMeta(spec, 1L) != ImageCorpus.imageMeta(spec, 2L))
  }

  test("object count respects the configured range") {
    ImageCorpus.metasLocal(spec, sf).foreach { m =>
      assert(m.objects.size >= spec.minObjPerImage && m.objects.size <= spec.maxObjPerImage)
    }
  }

  test("object boxes lie within the image frame") {
    ImageCorpus.metasLocal(spec, sf).foreach { m =>
      m.objects.foreach { o =>
        assert(o.x0 >= 0 && o.y0 >= 0 && o.x1 <= m.w + 1e-9 && o.y1 <= m.h + 1e-9, s"$o")
        assert(o.x1 > o.x0 && o.y1 > o.y0)
      }
    }
  }

  test("object sizes respect the scale range") {
    val minDim = math.min(spec.imgW, spec.imgH)
    ImageCorpus.metasLocal(spec, sf).foreach { m =>
      m.objects.foreach { o =>
        val size = (o.x1 - o.x0) / minDim
        assert(size >= spec.objScaleRange._1 - 1e-9 && size <= spec.objScaleRange._2 + 1e-9)
      }
    }
  }

  test("categories fall in [0, nCats)") {
    ImageCorpus.metasLocal(spec, sf).foreach { m =>
      m.objects.foreach(o => assert(o.cat >= 0 && o.cat < spec.nCats))
    }
  }

  test("modes are valid per category") {
    val cs = spec.conceptSpace
    ImageCorpus.metasLocal(spec, sf).foreach { m =>
      m.objects.foreach(o => assert(o.mode >= 0 && o.mode < cs.nModes(o.cat)))
    }
  }

  test("zipf skew: category 0 is more frequent than the last category") {
    val counts = ImageCorpus.metasLocal(spec, 0.05)
      .flatMap(_.objects.map(_.cat))
      .groupBy(identity).view.mapValues(_.size).toMap
    assert(counts.getOrElse(0, 0) > counts.getOrElse(spec.nCats - 1, 0))
  }

  test("centered spec places the single object at the image center") {
    val cspec = TestData.tinyCentered()
    ImageCorpus.metasLocal(cspec, sf).foreach { m =>
      assert(m.objects.size == 1)
      val o = m.objects.head
      val cx = (o.x0 + o.x1) / 2
      val cy = (o.y0 + o.y1) / 2
      assert(math.abs(cx - cspec.imgW / 2.0) < 1e-6)
      assert(math.abs(cy - cspec.imgH / 2.0) < 1e-6)
    }
  }

  test("imagesAt scales with sf and floors at 50") {
    assert(spec.imagesAt(1.0) == 20000)
    assert(spec.imagesAt(0.01) == 200)
    assert(spec.imagesAt(1e-9) == 50)
  }

  test("groundTruthBoxes flattens every object exactly once") {
    val df = Reference.groundTruthBoxes(spark, spec, TestData.OracleSf)
    val local = ImageCorpus.metasLocal(spec, TestData.OracleSf)
    assert(df.count() == local.map(_.objects.size).sum)
  }

  test("oracle: per-category relevant-image counts match DuckDB") {
    val gt = Reference.groundTruthBoxes(spark, spec, TestData.OracleSf)
    val sparkCounts = gt.select("img_id", "cat").distinct()
      .groupBy("cat").agg(count(lit(1)).as("n_images"))
      .select(col("cat"), col("n_images"))
    Oracle.assertEquivalent(
      sparkCounts,
      "SELECT cat, COUNT(DISTINCT img_id) AS n_images FROM gt GROUP BY cat",
      "gt" -> gt,
    )
  }

  test("relevantImages agrees with the ground-truth DataFrame") {
    val gt = Reference.groundTruthBoxes(spark, spec, TestData.OracleSf)
    val cat = 0
    val fromDf = gt.filter(col("cat") === cat).select("img_id").distinct()
      .collect().map(_.getLong(0)).toSet
    assert(Reference.relevantImages(spec, TestData.OracleSf, cat) == fromDf)
  }

  test("every category has at least one instance at moderate scale") {
    val cats = ImageCorpus.metasLocal(spec, 0.05).flatMap(_.objects.map(_.cat)).toSet
    assert(cats.size >= spec.nCats - 2, s"only ${cats.size} categories appear")
  }
}
