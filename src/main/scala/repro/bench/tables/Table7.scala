package repro.bench.tables

import org.apache.spark.sql.SparkSession
import repro.bench._
import repro.core.{AlignerConfig, Metrics}
import repro.data.DatasetSpec

/** Table 7: SeeSaw mean AP (all queries, multiscale) under different
  * hyperparameter settings (λ_c, λ_D, λ). The paper's claim: the optimum is
  * flat — values an order of magnitude apart stay near the maximum, and the
  * same setting works across datasets.
  */
object Table7 {

  /** The paper's grid, in its row order; the boxed row (10, 1000, 100) is
    * the setting used everywhere else.
    */
  val Grid: Seq[(Double, Double, Double)] = Seq(
    (3, 300, 100), (3, 1000, 100), (3, 3000, 100),
    (10, 300, 100), (10, 1000, 30), (10, 1000, 100), (10, 1000, 300), (10, 3000, 100),
    (30, 300, 100), (30, 1000, 100), (30, 3000, 100),
  )

  private def label(g: (Double, Double, Double)): String =
    s"λc=${g._1.toInt} λD=${g._2.toInt} λ=${g._3.toInt}"

  private def renderRows(title: String, header: Seq[String], rows: Seq[(String, Seq[Double])]): String =
    TableText.renderCells(title, header :+ "Avg.", rows.map { case (l, vs) => l -> vs.map(TableText.fmt) })

  final case class Result(datasets: Seq[String], rows: Seq[(String, Seq[Double])]) {
    def render: String = renderRows(
      "Table 7 (measured) — SeeSaw AP by hyperparameters (BDD COCO LVIS ObjNet Avg order as paper)",
      datasets,
      rows,
    )
  }

  /** The published values (mAP), one row per [[Grid]] setting. */
  val Paper: String = renderRows("Table 7 (paper)", Seq("BDD", "COCO", "LVIS", "ObjNet"), Seq(
    (3.0, 300.0, 100.0) -> Seq(0.78, 0.96, 0.76, 0.68, 0.80),
    (3.0, 1000.0, 100.0) -> Seq(0.77, 0.97, 0.77, 0.68, 0.80),
    (3.0, 3000.0, 100.0) -> Seq(0.77, 0.96, 0.76, 0.63, 0.78),
    (10.0, 300.0, 100.0) -> Seq(0.78, 0.96, 0.75, 0.69, 0.80),
    (10.0, 1000.0, 30.0) -> Seq(0.79, 0.96, 0.76, 0.70, 0.80),
    (10.0, 1000.0, 100.0) -> Seq(0.79, 0.96, 0.76, 0.70, 0.80),
    (10.0, 1000.0, 300.0) -> Seq(0.79, 0.96, 0.76, 0.70, 0.80),
    (10.0, 3000.0, 100.0) -> Seq(0.79, 0.97, 0.77, 0.69, 0.80),
    (30.0, 300.0, 100.0) -> Seq(0.77, 0.96, 0.73, 0.68, 0.79),
    (30.0, 1000.0, 100.0) -> Seq(0.77, 0.96, 0.74, 0.69, 0.79),
    (30.0, 3000.0, 100.0) -> Seq(0.77, 0.96, 0.74, 0.69, 0.79),
  ).map { case (g, vals) => label(g) -> vals })

  def compute(spark: SparkSession, sf: Double = DatasetSpec.BenchSf): Result = {
    // Paper column order for this table: BDD, COCO, LVIS, ObjNet.
    val specs = Seq(
      DatasetSpec.bddLike(), DatasetSpec.cocoLike(),
      DatasetSpec.lvisLike(), DatasetSpec.objectNetLike())
    val methods = Grid.map { case (lc, ld, l) =>
      MethodConfig.Aligned(label((lc, ld, l)), AlignerConfig(lambda = l, lambdaC = lc, lambdaD = ld))
    }
    val perDataset = specs.map { spec =>
      val results = BenchmarkRunner.run(spark, spec, sf, methods, multiscale = true)
      val cats = results.map(_.cat).toSet
      methods.map(m => m.name -> BenchmarkRunner.meanAp(results, m.name, cats)).toMap
    }
    val rows = methods.map { m =>
      val vals = perDataset.map(_(m.name))
      m.name -> (vals :+ Metrics.mean(vals))
    }
    Result(specs.map(_.name), rows)
  }
}
