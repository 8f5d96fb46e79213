package repro.bench.tables

import org.apache.spark.sql.SparkSession
import repro.bench._
import repro.core.Metrics
import repro.data.DatasetSpec
import repro.store.LocalVectorStore

/** Table 2: increases in mean AP per SeeSaw optimization (rows), per dataset
  * (columns), over all queries and over the hard subset (zero-shot AP < .5).
  *
  * Row ladder: zero-shot CLIP (coarse) → +multiscale → +few-shot CLIP →
  * +Query (CLIP) align → +DB align. All feedback rows use the multiscale
  * representation, as in the paper.
  */
object Table2 {

  val RowLabels: Seq[String] =
    Seq("zero-shot CLIP", "+multiscale", "+few-shot CLIP", "+Query align", "+DB align")

  /** The published values (mAP); columns LVIS, ObjNet, COCO, BDD, avg. */
  val Paper: String = PanelResult.paper("Table 2", "avg.",
    all = Seq(
      "zero-shot CLIP" -> Seq(0.63, 0.64, 0.90, 0.74, 0.72),
      "+multiscale" -> Seq(0.70, 0.64, 0.95, 0.76, 0.76),
      "+few-shot CLIP" -> Seq(0.67, 0.59, 0.87, 0.68, 0.70),
      "+Query align" -> Seq(0.75, 0.69, 0.96, 0.77, 0.79),
      "+DB align" -> Seq(0.76, 0.70, 0.96, 0.79, 0.80),
    ),
    hard = Seq(
      "zero-shot CLIP" -> Seq(0.19, 0.28, 0.27, 0.02, 0.19),
      "+multiscale" -> Seq(0.32, 0.28, 0.58, 0.10, 0.32),
      "+few-shot CLIP" -> Seq(0.34, 0.28, 0.57, 0.07, 0.31),
      "+Query align" -> Seq(0.42, 0.39, 0.74, 0.20, 0.44),
      "+DB align" -> Seq(0.44, 0.40, 0.75, 0.24, 0.46),
    ),
  )

  def compute(spark: SparkSession, sf: Double = DatasetSpec.BenchSf): PanelResult = {
    val multiscaleMethods = Seq(
      MethodConfig.ZeroShot, // with multiscale store = the "+multiscale" row
      MethodConfig.FewShot,
      MethodConfig.QueryAlign,
      MethodConfig.SeeSaw,
    )
    val perDataset = DatasetSpec.all().map { spec =>
      val zsCoarse = BenchmarkRunner.zeroShotCoarseAp(
        new SimulatedUser(spec, sf), LocalVectorStore.build(spec, sf, multiscale = false))
      val cats = zsCoarse.keySet
      val hard = cats.filter(c => Metrics.isHard(zsCoarse(c)))
      val results = BenchmarkRunner.run(spark, spec, sf, multiscaleMethods, multiscale = true)
      def values(subset: Set[Int]): Seq[Double] =
        Metrics.mean(subset.toSeq.map(zsCoarse)) +:
          multiscaleMethods.map(m => BenchmarkRunner.meanAp(results, m.name, subset))
      (spec.name, hard.size, values(cats), values(hard))
    }
    PanelResult.fromColumns("Table 2", "avg.", RowLabels, perDataset)
  }
}
