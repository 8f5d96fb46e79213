package repro.bench.tables

import org.apache.spark.sql.SparkSession
import repro.baseline.{Ens, Rocchio}
import repro.bench._
import repro.core.{AlignerConfig, Example, QueryAligner}
import repro.data.DatasetSpec
import repro.embed.ClipSim
import repro.graph.{DbAlign, KnnGraph, LabelPropagation}
import repro.store.{LocalVectorStore, SparkVectorStore}

/** Table 6: system latency per feedback iteration (seconds) vs database
  * size. Rows: coarse-indexed ObjNet⁻/BDD⁻/COCO⁻ and multiscale BDD/COCO,
  * at the paper's vector counts (50K–1.5M; paper: 50K–1.6M) times the size
  * multiplier `scale` of [[compute]].
  *
  * Per iteration each method does its update step plus (for query-vector
  * methods) a store lookup on the Spark store, one job per lookup — the
  * production dataflow. "prop." re-propagates labels over the full patch
  * kNN graph, the cost the M_D approximation avoids; ENS is only
  * implemented for coarse indexing, as in the paper (NA on multiscale rows).
  */
object Table6 {

  final case class RowSpec(label: String, spec: DatasetSpec, sf: Double, multiscale: Boolean)

  final case class Row(
      label: String,
      nVectors: Long,
      clip: Double,
      ens: Option[Double],
      rocchio: Double,
      seesaw: Double,
      prop: Double,
  )

  final case class Result(rows: Seq[Row]) {
    def render: String = TableText.renderCells(
      "Table 6 (measured) — latency per iteration (s) vs #vectors",
      Seq("vectors", "CLIP", "ENS", "Rocchio", "SeeSaw", "prop."),
      rows.map(r => r.label -> Seq(
        r.nVectors.toString,
        f"${r.clip}%.3f",
        r.ens.map(e => f"$e%.3f").getOrElse("NA"),
        f"${r.rocchio}%.3f",
        f"${r.seesaw}%.3f",
        f"${r.prop}%.3f",
      )),
    )
  }

  /** The published values. */
  val Paper: String =
    """Table 6 (paper):
      |          vectors  CLIP  ENS   Rocchio  SeeSaw  prop.
      |ObjNet-   50K      0.11  0.10  0.14     0.27    0.83
      |BDD-      80K      0.09  0.11  0.10     0.23    0.90
      |COCO-     120K     0.10  0.22  0.16     0.34    1.11
      |BDD       1.6M     0.13  NA    0.16     0.34    2.95
      |COCO      1.6M     0.14  NA    0.23     0.47    2.88""".stripMargin

  /** Paper-scale vector counts: ObjNet⁻ 50K, BDD⁻ 80K, COCO⁻ 120K coarse
    * vectors; BDD/COCO multiscale ≈ 1.5M patch vectors (paper: 1.6M).
    */
  def rowSpecs(scale: Double): Seq[RowSpec] = Seq(
    RowSpec("ObjNet-", DatasetSpec.objectNetLike(), 2.5 * scale, multiscale = false),
    RowSpec("BDD-", DatasetSpec.bddLike(), 5.0 * scale, multiscale = false),
    RowSpec("COCO-", DatasetSpec.cocoLike(), 5.0 * scale, multiscale = false),
    RowSpec("BDD", DatasetSpec.bddLike(), 5.0 * scale, multiscale = true),
    RowSpec("COCO", DatasetSpec.cocoLike(), 5.0 * scale, multiscale = true),
  )

  /** Above this many vectors, M_D is built from a deterministic sample of
    * the database — the sampling optimization §4.2 explicitly sanctions
    * ("a sample of a few thousand vectors produces a very similar M_D").
    */
  val MdSampleThreshold = 300000
  val MdSampleSize = 20000

  /** Timed repetitions per cell, after one warm-up; the cell is their median. */
  private val Reps = 3

  /** Untimed Spark lookups on each row's store before its cells are timed.
    * In a fresh JVM the Spark lookup is slow for its first few hundred
    * calls: on a BDD-like corpus at sf 0.025 (k = 1, 30 excluded images,
    * `local[4]`), the p50 per 100 calls read 22.7, 15.3 and 11.4 ms over the
    * first 300 calls, 8.7–9.3 ms up to call 800 and 6.9–8.7 ms after. 500
    * calls leave the steepest part behind for about 5 s per row at size
    * multiplier 0.01; one warm-up call per cell timed the warm-up instead.
    */
  private val WarmLookups = 500

  private def timeIt(body: => Unit): Double = {
    body // warmup
    val times = (0 until Reps).map { _ =>
      val t0 = System.nanoTime()
      body
      (System.nanoTime() - t0) / 1e9
    }
    times.sorted.apply(Reps / 2)
  }

  /** @param scale size multiplier of every row's vector count */
  def compute(spark: SparkSession, scale: Double = 1.0): Result = {
    val rows = rowSpecs(scale).map { rs =>
      val spec = rs.spec
      val user = new SimulatedUser(spec, rs.sf)
      val local = LocalVectorStore.build(spec, rs.sf, rs.multiscale)
      val sparkStore = SparkVectorStore.fromDataFrame(
        spark, ClipSim.patchVectors(spark, spec, rs.sf, rs.multiscale), spec.dim)
      val nVec = sparkStore.nVectors

      // Preprocessing artifacts (offline): patch kNN graph, M_D, propagator.
      val patchVecs = local.vecs.toIndexedSeq
      val patchGraph = KnnGraph.nnDescent(patchVecs, BenchmarkRunner.DbAlignK, BenchmarkRunner.DefaultSigma)
      val mD =
        if (patchVecs.length <= MdSampleThreshold) DbAlign.fromGraphLocal(patchGraph, patchVecs)
        else {
          val stride = patchVecs.length / MdSampleSize
          val sample = (0 until MdSampleSize).map(i => patchVecs(i * stride))
          val sampleGraph = KnnGraph.nnDescent(sample, BenchmarkRunner.DbAlignK, BenchmarkRunner.DefaultSigma)
          DbAlign.fromGraphLocal(sampleGraph, sample)
        }
      val propagator = new LabelPropagation.Propagator(patchGraph)

      // A mid-session feedback state: 20 seen images for a representative query.
      val cat = user.queryCategories.head
      val q0 = user.textEmbedding(cat)
      val seenHits = local.topImages(q0, 20)
      val seen = seenHits.map(_.imgId).toSet
      // Each seen image's patches labeled once, in patchId order.
      val seenLabels: Map[Long, IndexedSeq[Example]] = seenHits.map(h => h.imgId ->
        user.labelPatches(ClipSim.patchRecords(spec, user.meta(h.imgId), rs.multiscale), cat).toIndexedSeq).toMap
      val examples: IndexedSeq[Example] = seenHits.flatMap(h => seenLabels(h.imgId))

      // Patch-level labels for propagation (flat indices of seen images).
      val patchLabels: Map[Int, Double] = {
        val b = Map.newBuilder[Int, Double]
        var i = 0
        while (i < local.imgIds.length) {
          if (seen.contains(local.imgIds(i))) {
            val ex = seenLabels(local.imgIds(i))(local.patchIds(i))
            b += i -> (if (ex.positive) 1.0 else 0.0)
          }
          i += 1
        }
        b.result()
      }

      for (_ <- 0 until WarmLookups) sparkStore.topImages(q0, 10, seen)
      val clipT = timeIt { sparkStore.topImages(q0, 10, seen) }
      val rocchioT = timeIt {
        val q = Rocchio.update(q0, examples)
        sparkStore.topImages(q, 10, seen)
      }
      val seesawT = timeIt {
        val q = QueryAligner.align(q0, examples, AlignerConfig.SeeSaw, Some(mD))
        sparkStore.topImages(q, 10, seen)
      }
      val propT = timeIt {
        // Full propagation to convergence each round — the linear-in-N cost
        // the M_D approximation exists to avoid (paper §4.2, Table 6).
        val f = propagator.propagate(patchLabels)
        var best = -1; var bestV = Double.NegativeInfinity
        var i = 0
        while (i < f.length) {
          if (!patchLabels.contains(i) && f(i) > bestV) { bestV = f(i); best = i }
          i += 1
        }
        require(best >= 0, "propagation selected nothing")
      }
      val ensT =
        if (rs.multiscale) None // paper: ENS implemented for coarse only
        else Some {
          val ensGraph = KnnGraph.nnDescent(patchVecs, BenchmarkRunner.EnsK, BenchmarkRunner.DefaultSigma)
          val prior = SearchSession.ensPrior(user, cat, GraphContext(ensGraph, local.vecs), calibrated = false)
          val ens = new Ens(ensGraph, prior)
          val labeled = seen.map(id => id.toInt -> user.isRelevant(id, cat)).toMap
          timeIt { ens.selectNext(labeled, horizon = 40) }
        }

      sparkStore.unpersist()
      Row(rs.label, nVec, clipT, ensT, rocchioT, seesawT, propT)
    }
    Result(rows)
  }
}
