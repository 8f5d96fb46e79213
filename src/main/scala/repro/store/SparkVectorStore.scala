package repro.store

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._

/** DataFrame-based exact MIPS scan store.
  *
  * This is the "production" dataflow path: the patch-vector table stays
  * distributed and each lookup is a Spark job — score UDF over the vector
  * column, per-image max aggregation (the multiscale rule), exclusion of
  * seen images, then a global top-k. Used for correctness tests against the
  * local store and for the Table 6 latency measurements, where per-iteration
  * latency of the real dataflow is the quantity of interest.
  *
  * @param df cached DataFrame with columns (img_id, patch_id, vec)
  */
final class SparkVectorStore(spark: SparkSession, df: DataFrame, val dim: Int) extends VectorStore {

  private val data = df.select("img_id", "patch_id", "vec").cache()
  override lazy val nVectors: Long = data.count()
  override lazy val nImages: Long = data.select("img_id").distinct().count()

  private def scoreUdf(q: Array[Float]): UserDefinedFunction = udf { (vec: Seq[Float]) =>
    // Traverse via iterator: Spark may hand the array column over as a
    // linked Seq, where positional indexing would be O(dim²) per row.
    var s = 0.0; var i = 0
    val it = vec.iterator
    while (it.hasNext && i < q.length) { s += it.next().toDouble * q(i); i += 1 }
    s
  }

  override def topImages(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
    require(q.length == dim, s"query dim ${q.length} != store dim $dim")
    require(k > 0, "k must be positive")
    scoredImages(q, exclude)
      .orderBy(desc("score"), asc("img_id"))
      .limit(k)
      .collect()
      .map(r => ImageHit(r.getLong(0), r.getInt(1), r.getDouble(2)))
      .toIndexedSeq
  }

  /** Per-image best (patch, score) as a DataFrame — the scan dataflow shared
    * by topImages and the oracle tests: score every patch, take the max
    * (struct max gives arg-max of the patch too), drop seen images.
    */
  def scoredImages(q: Array[Float], exclude: Set[Long] = Set.empty): DataFrame = {
    val base = if (exclude.isEmpty) data else {
      val ex = exclude // stable reference for the closure
      val keep = udf((id: Long) => !ex.contains(id))
      data.filter(keep(col("img_id")))
    }
    base
      .withColumn("score", scoreUdf(q)(col("vec")))
      .groupBy("img_id")
      .agg(max(struct(col("score"), col("patch_id"))).as("best"))
      .select(
        col("img_id"),
        col("best.patch_id").as("patch_id"),
        col("best.score").as("score"),
      )
  }

  /** Release the cached vector table. */
  def unpersist(): Unit = data.unpersist()
}

object SparkVectorStore {
  /** Wrap an existing patch-vector DataFrame (from ClipSim.patchVectors). */
  def fromDataFrame(spark: SparkSession, df: DataFrame, dim: Int): SparkVectorStore =
    new SparkVectorStore(spark, df, dim)
}
