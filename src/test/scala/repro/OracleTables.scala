package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.DatasetSpec
import repro.embed.ClipSim

/** Input tables for the DuckDB oracle, which sees scalar columns only. */
object OracleTables {

  /** Long-format patch vectors (img_id, patch_id, dim, value): the rows of
    * `ClipSim.patchVectors` with each vector exploded into one row per
    * dimension, so SQL can recompute dot-product scores.
    */
  def longPatchVectors(
      spark: SparkSession, spec: DatasetSpec, sf: Double, multiscale: Boolean): DataFrame =
    ClipSim.patchVectors(spark, spec, sf, multiscale)
      .select(col("img_id"), col("patch_id"), posexplode(col("vec")).as(Seq("dim", "v")))
      .select(col("img_id"), col("patch_id"), col("dim"), col("v").cast("double").as("value"))
}
