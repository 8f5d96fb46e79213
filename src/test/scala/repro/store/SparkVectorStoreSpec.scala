package repro.store

import org.apache.spark.sql.functions._
import repro.{Oracle, OracleTables, SparkSpec, TestData}
import repro.core.{Linalg, Rng}
import repro.embed.ClipSim

class SparkVectorStoreSpec extends SparkSpec {

  private val spec = TestData.tiny()
  private val sf = TestData.OracleSf
  private lazy val local = LocalVectorStore.build(spec, sf, multiscale = true)
  private lazy val sparkStore = SparkVectorStore.fromDataFrame(
    spark, ClipSim.patchVectors(spark, spec, sf, multiscale = true), spec.dim)

  private def queryDf(q: Array[Float]) = {
    import spark.implicits._
    q.zipWithIndex.map { case (v, d) => (d, v.toDouble) }.toSeq.toDF("dim", "qv")
  }

  test("vector and image counts match the local store") {
    assert(sparkStore.nVectors == local.nVectors)
    assert(sparkStore.nImages == local.nImages)
  }

  test("topImages equals the local store exactly") {
    for (s <- 0 until 5) {
      val q = Linalg.normalize(Rng.gaussianVector(Rng.key(2, s), spec.dim))
      val a = sparkStore.topImages(q, 7)
      val b = local.topImages(q, 7)
      assert(a.map(_.imgId) == b.map(_.imgId), s"seed $s")
      a.zip(b).foreach { case (x, y) =>
        assert(x.patchId == y.patchId)
        assert(math.abs(x.score - y.score) < 1e-9)
      }
    }
  }

  test("exclusion works on the Spark path") {
    val q = spec.conceptSpace.textEmbedding(0)
    val first = sparkStore.topImages(q, 4).map(_.imgId).toSet
    val next = sparkStore.topImages(q, 4, exclude = first)
    assert(next.map(_.imgId).toSet.intersect(first).isEmpty)
    assert(next.map(_.imgId) == local.topImages(q, 4, first).map(_.imgId))
  }

  test("oracle: per-image max-patch scores match DuckDB SQL") {
    val q = spec.conceptSpace.textEmbedding(1)
    val long = OracleTables.longPatchVectors(spark, spec, sf, multiscale = true)
    val sparkScores = sparkStore.scoredImages(q)
      .select(col("img_id"), round(col("score"), 5).as("score"))
    Oracle.assertEquivalent(
      sparkScores,
      """SELECT img_id, ROUND(MAX(patch_score), 5) AS score FROM (
        |  SELECT v.img_id, v.patch_id, SUM(CAST(v.value AS DOUBLE) * CAST(q.qv AS DOUBLE)) AS patch_score
        |  FROM vecs v JOIN query q ON v.dim = q.dim
        |  GROUP BY v.img_id, v.patch_id
        |) GROUP BY img_id""".stripMargin,
      "vecs" -> long,
      "query" -> queryDf(q),
    )
  }

  test("oracle: top-5 images match DuckDB order-by-limit") {
    val q = spec.conceptSpace.textEmbedding(2)
    import spark.implicits._
    val long = OracleTables.longPatchVectors(spark, spec, sf, multiscale = true)
    val top = sparkStore.topImages(q, 5)
    val sparkTop = top.map(h => (h.imgId, BigDecimal(h.score).setScale(5, BigDecimal.RoundingMode.HALF_UP).toDouble))
      .toDF("img_id", "score")
    Oracle.assertEquivalent(
      sparkTop,
      """SELECT img_id, ROUND(score, 5) AS score FROM (
        |  SELECT img_id, MAX(patch_score) AS score FROM (
        |    SELECT v.img_id, v.patch_id, SUM(CAST(v.value AS DOUBLE) * CAST(q.qv AS DOUBLE)) AS patch_score
        |    FROM vecs v JOIN query q ON v.dim = q.dim
        |    GROUP BY v.img_id, v.patch_id
        |  ) GROUP BY img_id
        |) ORDER BY score DESC, img_id ASC LIMIT 5""".stripMargin,
      "vecs" -> long,
      "query" -> queryDf(q),
    )
  }

  test("k must be positive") {
    val q = Linalg.normalize(Rng.gaussianVector(2L, spec.dim))
    assertThrows[IllegalArgumentException](sparkStore.topImages(q, 0))
    assertThrows[IllegalArgumentException](sparkStore.topImages(q, -1))
  }

  test("query dimension mismatch is rejected") {
    assertThrows[IllegalArgumentException](sparkStore.topImages(new Array[Float](7), 1))
  }
}
