package repro.store

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.SparkException
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.functions._
import repro.{Oracle, OracleTables, SparkSpec, TestData}
import repro.core.{Linalg, Rng}
import repro.data.ImageCorpus
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
      // Case-class equality: image ids, patch ids and scores compared with ==.
      assert(sparkStore.topImages(q, 7) == local.topImages(q, 7), s"seed $s")
    }
  }

  /** Hits for k ∈ {1, 7, nImages + 5}, with and without an exclude set,
    * equal the local store's bit for bit.
    */
  private def assertEqualsLocal(store: SparkVectorStore, reference: LocalVectorStore): Unit = {
    val n = reference.nImages.toInt
    val exclude = reference.imgIds.distinct.zipWithIndex.collect { case (id, i) if i % 3 == 0 => id }.toSet
    for (s <- 0 until 3; k <- Seq(1, 7, n + 5); ex <- Seq(Set.empty[Long], exclude)) {
      val q = Linalg.normalize(Rng.gaussianVector(Rng.key(5, s), spec.dim))
      assert(store.topImages(q, k, ex) == reference.topImages(q, k, ex), s"seed $s k $k exclude ${ex.size}")
    }
  }

  test("images straddling input partitions") {
    // Round-robin: each image's patch rows land in several input partitions.
    val df = ClipSim.patchVectors(spark, spec, sf, multiscale = true).repartition(7)
    val store = SparkVectorStore.fromDataFrame(spark, df, spec.dim)
    try {
      assert(store.nVectors == local.nVectors && store.nImages == local.nImages)
      assertEqualsLocal(store, local)
    } finally store.unpersist()
  }

  test("more partitions than images") {
    // With more than two task slots, some partitions hold no image.
    val nImg = 2
    val df = ClipSim.patchVectors(spark, spec, sf, multiscale = true).filter(col("img_id") < nImg)
    val store = SparkVectorStore.fromDataFrame(spark, df, spec.dim)
    val few = new LocalVectorStore((0 until nImg).flatMap(i =>
      ClipSim.patchRecords(spec, ImageCorpus.imageMeta(spec, i.toLong), multiscale = true)))
    try {
      assert(store.nVectors == few.nVectors && store.nImages == few.nImages)
      assert(store.nImages == nImg)
      assertEqualsLocal(store, few)
    } finally store.unpersist()
  }

  test("a vector of the wrong length is rejected at build") {
    val shorten = udf((id: Long, p: Int, v: Seq[Float]) => if (id == 3L && p == 4) v.dropRight(1) else v)
    val df = ClipSim.patchVectors(spark, spec, sf, multiscale = true)
      .withColumn("vec", shorten(col("img_id"), col("patch_id"), col("vec")))
    val q = Linalg.normalize(Rng.gaussianVector(7L, spec.dim))
    val e = intercept[Exception](SparkVectorStore.fromDataFrame(spark, df, spec.dim).topImages(q, 3))
    val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString(" | ")
    assert(messages.contains("dim"), messages)
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
    import spark.implicits._
    val sparkScores = sparkStore.topImages(q, sparkStore.nImages.toInt)
      .map(h => (h.imgId, h.score)).toDF("img_id", "score")
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

  test("a lookup is one job of one stage with one task per partition") {
    val q = Linalg.normalize(Rng.gaussianVector(9L, spec.dim))
    sparkStore.topImages(q, 1) // build the store before counting
    val counter = new JobCounter
    spark.sparkContext.addSparkListener(counter)
    val calls = 3
    // Counted from a settled start, so late events of earlier jobs are not.
    val ((jobs0, stages0, tasks0), (jobs1, stages1, tasks1)) =
      try {
        val start = counter.settled()
        for (_ <- 0 until calls) sparkStore.topImages(q, 1, exclude = Set(0L, 1L))
        (start, counter.settled())
      } finally spark.sparkContext.removeSparkListener(counter)
    assert(jobs1 - jobs0 == calls)
    // A lookup job that still walked the build's shuffle would list a
    // second (skipped) stage.
    assert(stages1 - stages0 == calls)
    assert(tasks1 - tasks0 == calls * spark.sparkContext.defaultParallelism)
  }

  test("a lookup after unpersist fails loudly instead of rebuilding") {
    val store = SparkVectorStore.fromDataFrame(
      spark, ClipSim.patchVectors(spark, spec, sf, multiscale = true), spec.dim)
    val q = Linalg.normalize(Rng.gaussianVector(11L, spec.dim))
    assert(store.topImages(q, 2) == local.topImages(q, 2))
    store.unpersist()
    val e = intercept[SparkException](store.topImages(q, 2))
    assert(e.getMessage.contains("CHECKPOINT_RDD_BLOCK_ID_NOT_FOUND"), e.getMessage)
  }

  test("k must be positive") {
    val q = Linalg.normalize(Rng.gaussianVector(2L, spec.dim))
    assertThrows[IllegalArgumentException](sparkStore.topImages(q, 0))
    assertThrows[IllegalArgumentException](sparkStore.topImages(q, -1))
  }

  test("query dimension mismatch is rejected") {
    assertThrows[IllegalArgumentException](sparkStore.topImages(new Array[Float](7), 1))
  }

  test("a non-finite query is rejected before any Spark job runs") {
    for (bad <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity)) {
      val q = Linalg.normalize(Rng.gaussianVector(3L, spec.dim))
      q(5) = bad
      // An IllegalArgumentException, not a SparkException from a failed task.
      assertThrows[IllegalArgumentException](sparkStore.topImages(q, 1))
    }
  }
}

/** Counts Spark jobs, the stages each job lists and finished tasks;
  * listener events arrive asynchronously.
  */
private final class JobCounter extends SparkListener {
  private val jobs = new AtomicLong
  private val stages = new AtomicLong
  private val tasks = new AtomicLong
  override def onJobStart(e: SparkListenerJobStart): Unit = {
    jobs.incrementAndGet()
    stages.addAndGet(e.stageInfos.size.toLong)
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.incrementAndGet()

  private def now = (jobs.get, stages.get, tasks.get)

  /** (jobs, stages, tasks) once no event has arrived for 100 ms. */
  def settled(): (Long, Long, Long) = {
    var last = (-1L, -1L, -1L)
    var current = now
    var waited = 0
    while (current != last && waited < 50) {
      Thread.sleep(100); waited += 1
      last = current; current = now
    }
    current
  }
}
