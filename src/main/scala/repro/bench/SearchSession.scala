package repro.bench

import repro.baseline.{Ens, Platt, Rocchio}
import repro.core.{Example, Linalg, Metrics, QueryAligner}
import repro.embed.ClipSim
import repro.graph.{DbAlignMatrix, KnnGraph}
import repro.store.VectorStore

/** Graph context for ENS, the node-based method: a kNN graph over the
  * coarse image vectors, node index = image id.
  */
final case class GraphContext(graph: KnnGraph, coarseVecs: Array[Array[Float]]) extends Serializable {
  require(graph.n == coarseVecs.length, "graph/vector count mismatch")
}

/** Result of one benchmark search (one query, one method). */
final case class SearchOutcome(
    cat: Int,
    method: String,
    trace: IndexedSeq[Boolean],
    totalRelevant: Long,
    ap: Double,
) {
  def nSeen: Int = trace.length
  def nFound: Int = trace.count(identity)
}

/** The interactive search loop of Listing 1, driven by the simulated user:
  * show the best unseen image, collect box feedback, update the query
  * (method-specific), repeat until `target` relevant images are found or
  * `budget` images have been shown (paper benchmark task, §5.1).
  */
object SearchSession {

  def run(
      store: VectorStore,
      user: SimulatedUser,
      cat: Int,
      method: MethodConfig,
      multiscale: Boolean,
      mD: Option[DbAlignMatrix] = None,
      graphCtx: Option[GraphContext] = None,
      target: Int = Metrics.DefaultTarget,
      budget: Int = Metrics.DefaultBudget,
  ): SearchOutcome = {
    require(target > 0 && budget >= target, "need target > 0 and budget >= target")
    val trace = method match {
      case MethodConfig.ZeroShot | _: MethodConfig.Aligned | MethodConfig.Rocchio =>
        vectorLoop(store, user, cat, method, multiscale, mD, target, budget)
      case e: MethodConfig.EnsCfg =>
        ensLoop(user, cat, e, graphCtx.getOrElse(sys.error("ENS needs a GraphContext")), target, budget)
    }
    SearchOutcome(cat, method.name, trace, user.totalRelevant(cat),
      Metrics.averagePrecision(trace, user.totalRelevant(cat), target))
  }

  /** Query-vector methods: zero-shot / aligner family / Rocchio. */
  private def vectorLoop(
      store: VectorStore,
      user: SimulatedUser,
      cat: Int,
      method: MethodConfig,
      multiscale: Boolean,
      mD: Option[DbAlignMatrix],
      target: Int,
      budget: Int,
  ): IndexedSeq[Boolean] = {
    val q0 = user.textEmbedding(cat)
    var q = q0
    val examples = scala.collection.mutable.ArrayBuffer.empty[Example]
    var seen = Set.empty[Long]
    val trace = scala.collection.mutable.ArrayBuffer.empty[Boolean]
    var found = 0
    var shown = 0
    while (found < target && shown < budget) {
      val hits = store.topImages(q, 1, seen)
      if (hits.isEmpty) return trace.toIndexedSeq // store exhausted
      val img = hits.head.imgId
      seen += img
      val relevant = user.isRelevant(img, cat)
      trace += relevant
      if (relevant) found += 1
      shown += 1
      // Box feedback → labeled patches of the shown image (all methods
      // except zero-shot consume it).
      if (method != MethodConfig.ZeroShot && (found < target && shown < budget)) {
        val patches = ClipSim.patchRecords(user.spec, user.meta(img), multiscale)
        examples ++= user.labelPatches(patches, cat)
        q = method match {
          case MethodConfig.Aligned(_, cfg) => QueryAligner.align(q0, examples.toIndexedSeq, cfg, mD)
          case MethodConfig.Rocchio => Rocchio.update(q0, examples.toIndexedSeq)
          case _ => q
        }
      }
    }
    trace.toIndexedSeq
  }

  /** The γ_i prior ENS uses: per-image CLIP scores, raw or Platt-calibrated
    * on ground truth (the Table 4 diagnostic). The raw mapping min-max
    * normalizes the scores into [0,1]: it preserves the CLIP ranking but is
    * badly calibrated as a probability (mean γ far above the true base
    * rate), which is exactly the miscalibration the paper analyzes.
    */
  def ensPrior(user: SimulatedUser, cat: Int, ctx: GraphContext, calibrated: Boolean): Array[Double] = {
    val q0 = user.textEmbedding(cat)
    val scores = ctx.coarseVecs.map(v => Linalg.dot(v, q0))
    if (!calibrated) {
      val lo = scores.min; val hi = scores.max
      if (hi - lo < 1e-12) scores.map(_ => 0.5)
      else scores.map(s => (s - lo) / (hi - lo))
    } else {
      val labels = ctx.coarseVecs.indices.map(i => user.isRelevant(i.toLong, cat))
      val model = Platt.fit(scores.toIndexedSeq, labels)
      scores.map(model.probability)
    }
  }

  private def ensLoop(
      user: SimulatedUser,
      cat: Int,
      cfg: MethodConfig.EnsCfg,
      ctx: GraphContext,
      target: Int,
      budget: Int,
  ): IndexedSeq[Boolean] = {
    val q0 = user.textEmbedding(cat)
    val prior = ensPrior(user, cat, ctx, cfg.calibrated)
    val ens = new Ens(ctx.graph, prior)
    val byZeroShot = ctx.coarseVecs.indices
      .sortBy(i => (-Linalg.dot(ctx.coarseVecs(i), q0), i))
    var labeled = Map.empty[Int, Boolean]
    val trace = scala.collection.mutable.ArrayBuffer.empty[Boolean]
    var found = 0
    var shown = 0
    var zeroShotPhase = true // paper: defer to zero-shot CLIP until a first positive
    var zsCursor = 0
    while (found < target && shown < budget && labeled.size < ctx.graph.n) {
      val pick =
        if (zeroShotPhase) {
          while (labeled.contains(byZeroShot(zsCursor))) zsCursor += 1
          byZeroShot(zsCursor)
        } else {
          val remaining = budget - shown
          val horizon = if (cfg.horizon == -1) remaining else math.max(1, math.min(cfg.horizon, remaining))
          ens.selectNext(labeled, horizon)
        }
      val relevant = user.isRelevant(pick.toLong, cat)
      labeled += pick -> relevant
      trace += relevant
      if (relevant) { found += 1; zeroShotPhase = false }
      shown += 1
    }
    trace.toIndexedSeq
  }
}
