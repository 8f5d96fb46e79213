package perfbench

import repro.bench.MethodConfig
import repro.data.DatasetSpec

/** A benchmark workload. The seed only re-seeds the generated corpora
  * (`DatasetSpec.seed`); seed 0 gives the program's default corpora.
  */
sealed trait Workload {
  def name: String
  /** Closed-loop clients: each waits for its session round before the next. */
  def clients: Int
  def methods: Seq[MethodConfig]
}

/** One client running SeeSaw sessions for every query category, back to back. */
final case class Interactive(
    name: String,
    spec: Long => DatasetSpec,
    sf: Double,
    useSpark: Boolean,
    mdSample: Option[Int],
) extends Workload {
  val clients = 1
  val methods: Seq[MethodConfig] = Seq(MethodConfig.SeeSaw)
}

/** Table 2's multiscale panel: every corpus × the aligner-family methods,
  * run by the query-parallel `BenchmarkRunner` on `clients` Spark task slots.
  */
final case class Sweep(name: String, specs: Long => Seq[DatasetSpec], sf: Double, clients: Int) extends Workload {
  val methods: Seq[MethodConfig] =
    Seq(MethodConfig.ZeroShot, MethodConfig.FewShot, MethodConfig.QueryAlign, MethodConfig.SeeSaw)
}

object Workload {
  private def reseed(s: DatasetSpec, seed: Long): DatasetSpec = s.copy(seed = s.seed + 1000L * seed)

  def all(threads: Int): Seq[Workload] = Seq(
    // The store scan over a large multiscale corpus is the cost that grows
    // with the database. M_D comes from a 5K-vector stride sample (§4.2: a
    // few thousand vectors give a very similar M_D); the full graph would
    // quadruple set-up at the same `map` (see the benchmark's README).
    Interactive("interactive_local", s => reseed(DatasetSpec.lvisLike(), s), sf = 0.2,
      useSpark = false, mdSample = Some(5000)),
    // Table 6's production dataflow: each lookup is a Spark job whose fixed
    // per-job cost dominates the round; M_D from the full kNN graph.
    Interactive("interactive_spark", s => reseed(DatasetSpec.bddLike(), s), sf = 0.025,
      useSpark = true, mdSample = None),
    // Small corpora make the feedback path (aligner, labelling, loop) a
    // large share, and the runner's parallelism sets the throughput.
    Sweep("sweep", s => DatasetSpec.all().map(reseed(_, s)), sf = 0.02, clients = threads),
  )
}
