package repro.store

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.embed.PatchRecord

/** Distributed exact MIPS scan store.
  *
  * This is the "production" dataflow path: the patch-vector table stays
  * distributed, and each lookup is one Spark job. At construction the table
  * is hash-partitioned by image into one partition per task slot
  * (`defaultParallelism`), so no image spans two partitions, and each
  * partition becomes a one-chunk `LocalVectorStore`. The RDD of partition
  * stores is cached at `MEMORY_AND_DISK` and its lineage is cut once
  * (`localCheckpoint`), so a lookup job has one stage and no parent to walk:
  * it is one `runJob` over the cached partition stores, whose tasks run the
  * local store's scan and return each partition's top-k. The driver merges
  * them under the same (score desc, imgId asc) order the local store uses
  * for its chunks. Every image is scored whole inside one partition, so any
  * image of the global top-k is in its partition's top-k and the merge is
  * exact; scores are the local store's, bit for bit. Used for correctness
  * tests against the local store and for the Table 6 latency measurements,
  * where per-iteration latency of the real dataflow is the quantity of
  * interest.
  *
  * @param df patch-vector table with columns (img_id, patch_id, vec); it is
  *           read once here and not kept cached
  */
final class SparkVectorStore(spark: SparkSession, df: DataFrame, val dim: Int) extends VectorStore {
  import spark.implicits._

  // Hash-partitioned by image, one partition per task slot, so no image
  // spans two partitions whatever the input's partitioning.
  private val parts: RDD[LocalVectorStore] = df.select("img_id", "patch_id", "vec")
    .as[(Long, Int, Array[Float])].rdd
    .map { case (img, patch, vec) => img -> (patch, vec) }
    .partitionBy(new HashPartitioner(spark.sparkContext.defaultParallelism))
    .mapPartitions { rows =>
      // One chunk: Spark's tasks already supply the parallelism, so a
      // partition's scan never forks onto the ForkJoin pool. The store
      // reads no patch box.
      val records = rows.map { case (img, (patch, vec)) => PatchRecord(img, patch, 0, 0, 0, 0, vec) }.toIndexedSeq
      if (records.isEmpty) Iterator.empty else Iterator(LocalVectorStore.withProcessors(records, 1))
    }
    .persist(StorageLevel.MEMORY_AND_DISK)
    // Cut the lineage: later jobs read the cached blocks and never walk the
    // shuffle back to the DataFrame.
    .localCheckpoint()

  // (vectors, images, dim) of each partition's store; this job fills the
  // cache and materializes the checkpoint.
  private val partStats: Array[(Long, Long, Int)] = parts.map(s => (s.nVectors, s.nImages, s.dim)).collect()
  partStats.foreach { case (_, _, d) => require(d == dim, s"patch vector dim $d != store dim $dim") }
  override val nVectors: Long = partStats.map(_._1).sum
  override val nImages: Long = partStats.map(_._2).sum

  override def topImages(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
    require(q.length == dim, s"query dim ${q.length} != store dim $dim")
    require(k > 0, "k must be positive")
    require(q.forall(v => !v.isNaN && !v.isInfinite), "query has a non-finite component")
    val scan = (stores: Iterator[LocalVectorStore]) => stores.flatMap(_.topImages(q, k, exclude)).toArray
    parts.sparkContext.runJob(parts, scan)
      .flatten.sorted(LocalVectorStore.BestFirst).take(k).toIndexedSeq
  }

  /** Release the cached partition stores. The store is unusable afterwards:
    * the lineage was cut at build, so a later lookup throws a
    * `SparkException` instead of rebuilding the table.
    */
  def unpersist(): Unit = parts.unpersist(blocking = true)
}

object SparkVectorStore {
  /** Wrap an existing patch-vector DataFrame (from ClipSim.patchVectors). */
  def fromDataFrame(spark: SparkSession, df: DataFrame, dim: Int): SparkVectorStore =
    new SparkVectorStore(spark, df, dim)
}
