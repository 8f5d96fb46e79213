package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.Metrics
import repro.data.DatasetSpec
import repro.graph.{DbAlign, DbAlignMatrix, KnnGraph}
import repro.store.LocalVectorStore

/** Result of one (dataset, method, query) benchmark cell. */
final case class QueryResult(
    dataset: String,
    method: String,
    cat: Int,
    ap: Double,
    nSeen: Int,
    nFound: Int,
)

/** Everything a search session needs for one dataset, built once per
  * (dataset, multiscale) and broadcast to the query-parallel sweep.
  */
final case class DatasetArtifacts(
    user: SimulatedUser,
    store: LocalVectorStore,
    mD: Option[DbAlignMatrix],
    graphCtx: Option[GraphContext],
) extends Serializable

/** Runs the paper's benchmark task (§5.1) for a set of methods over all the
  * labeled categories of a dataset, parallelizing over (category, method)
  * pairs as Spark tasks against broadcast artifacts — the distributed
  * dataflow for the accuracy sweeps of Tables 2, 3, 4 and 7.
  */
object BenchmarkRunner {

  /** Gaussian-kernel width for kNN edge weights. The paper uses σ=.05 on
    * CLIP's 512-d geometry; our synthetic 128-d space has larger
    * inter-neighbor distances, so the equivalent kernel width is 0.5
    * (documented substitution — only relative weights matter downstream,
    * and M_D is trace-normalized).
    */
  val DefaultSigma = 0.5

  /** kNN degree for DB alignment (paper: k=10). */
  val DbAlignK = 10

  /** kNN degree for ENS (paper: k=20). */
  val EnsK = 20

  def prepare(
      spark: SparkSession,
      spec: DatasetSpec,
      sf: Double,
      multiscale: Boolean,
      needMd: Boolean,
      needGraph: Boolean,
  ): DatasetArtifacts = {
    require(!(multiscale && needGraph),
      "ENS runs on coarse vectors only (paper §5.4): no graph over a multiscale store")
    val user = new SimulatedUser(spec, sf)
    val store = LocalVectorStore.build(spec, sf, multiscale)
    val mD =
      if (!needMd) None
      else {
        val vecs = store.vecs.toIndexedSeq
        val graph = KnnGraph.nnDescent(vecs, DbAlignK, DefaultSigma)
        Some(DbAlign.fromGraphSpark(spark, graph, vecs))
      }
    val graphCtx =
      if (!needGraph) None
      else {
        val vecs = store.vecs // sorted by imgId = 0..n-1, one patch per image
        val graph = KnnGraph.nnDescent(vecs.toIndexedSeq, EnsK, DefaultSigma)
        Some(GraphContext(graph, vecs))
      }
    DatasetArtifacts(user, store, mD, graphCtx)
  }

  /** Zero-shot coarse AP per category — defines the hard subset (AP < .5,
    * the dashed line of Figure 1). Cheap enough to run on the driver.
    * `coarse` is the corpus's coarse store (`multiscale = false`).
    */
  def zeroShotCoarseAp(user: SimulatedUser, coarse: LocalVectorStore): Map[Int, Double] =
    user.queryCategories.map { cat =>
      cat -> SearchSession.run(coarse, user, cat, MethodConfig.ZeroShot, multiscale = false).ap
    }.toMap

  /** Run `methods` over every query category of the dataset in parallel. */
  def run(
      spark: SparkSession,
      spec: DatasetSpec,
      sf: Double,
      methods: Seq[MethodConfig],
      multiscale: Boolean,
      artifacts: Option[DatasetArtifacts] = None,
      target: Int = Metrics.DefaultTarget,
      budget: Int = Metrics.DefaultBudget,
  ): Seq[QueryResult] = {
    val needMd = methods.exists {
      case MethodConfig.Aligned(_, cfg) => cfg.lambdaD > 0
      case _ => false
    }
    val needGraph = methods.exists(_.isInstanceOf[MethodConfig.EnsCfg])
    val arts = artifacts.getOrElse(prepare(spark, spec, sf, multiscale, needMd, needGraph))
    val bArts = spark.sparkContext.broadcast(arts)
    val tasks = for {
      cat <- arts.user.queryCategories
      m <- methods
    } yield (cat, m)
    val dsName = spec.name
    val results = spark.sparkContext
      .parallelize(tasks, math.min(tasks.size, spark.sparkContext.defaultParallelism * 4))
      .map { case (cat, m) =>
        val a = bArts.value
        val o = SearchSession.run(
          a.store, a.user, cat, m, multiscale, a.mD, a.graphCtx, target, budget)
        QueryResult(dsName, o.method, cat, o.ap, o.nSeen, o.nFound)
      }
      .collect()
      .toSeq
    bArts.unpersist()
    results
  }

  /** Mean AP of a method over a set of categories. */
  def meanAp(results: Seq[QueryResult], method: String, cats: Set[Int]): Double =
    Metrics.mean(results.filter(r => r.method == method && cats.contains(r.cat)).map(_.ap))
}
