package repro.bench.tables

import org.apache.spark.sql.SparkSession
import repro.bench._
import repro.core.Metrics
import repro.data.DatasetSpec

/** Table 3: mean AP of SeeSaw vs baselines, **no multiscale** for any method
  * (the paper only implemented ENS for coarse embeddings). Rows: zero-shot
  * CLIP, few-shot CLIP, ENS, Rocchio, this work; both panels.
  */
object Table3 {

  val RowLabels: Seq[String] =
    Seq("zero-shot CLIP", "few-shot CLIP", "ENS", "Rocchio", "this work")

  /** The published values (mAP); columns LVIS, ObjNet, COCO, BDD, Avg. */
  val Paper: String = PanelResult.paper("Table 3", "Avg.",
    all = Seq(
      "zero-shot CLIP" -> Seq(0.63, 0.64, 0.90, 0.74, 0.72),
      "few-shot CLIP" -> Seq(0.65, 0.58, 0.88, 0.73, 0.71),
      "ENS" -> Seq(0.50, 0.43, 0.86, 0.70, 0.62),
      "Rocchio" -> Seq(0.68, 0.70, 0.93, 0.75, 0.76),
      "this work" -> Seq(0.69, 0.70, 0.92, 0.76, 0.77),
    ),
    hard = Seq(
      "zero-shot CLIP" -> Seq(0.19, 0.28, 0.27, 0.02, 0.19),
      "few-shot CLIP" -> Seq(0.25, 0.28, 0.32, 0.06, 0.23),
      "ENS" -> Seq(0.16, 0.24, 0.37, 0.03, 0.20),
      "Rocchio" -> Seq(0.28, 0.38, 0.49, 0.05, 0.30),
      "this work" -> Seq(0.30, 0.40, 0.55, 0.07, 0.33),
    ),
  )

  def compute(spark: SparkSession, sf: Double = DatasetSpec.BenchSf): PanelResult = {
    val methods = Seq(
      MethodConfig.ZeroShot,
      MethodConfig.FewShot,
      MethodConfig.EnsCfg(),
      MethodConfig.Rocchio,
      MethodConfig.SeeSaw,
    )
    val perDataset = DatasetSpec.all().map { spec =>
      val results = BenchmarkRunner.run(spark, spec, sf, methods, multiscale = false)
      val zs = results.filter(_.method == "zero-shot CLIP").map(r => r.cat -> r.ap).toMap
      val cats = zs.keySet
      val hard = cats.filter(c => Metrics.isHard(zs(c)))
      def values(subset: Set[Int]): Seq[Double] =
        RowLabels.map(m => BenchmarkRunner.meanAp(results, m, subset))
      (spec.name, hard.size, values(cats), values(hard))
    }
    PanelResult.fromColumns("Table 3", "Avg.", RowLabels, perDataset)
  }
}
