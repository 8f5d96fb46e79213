package perfbench

import scala.collection.mutable.ArrayBuffer

import repro.bench.{MethodConfig, SearchOutcome, SearchSession, SimulatedUser}
import repro.core.{Example, Metrics, QueryAligner}
import repro.embed.ClipSim
import repro.graph.DbAlignMatrix
import repro.store.{ImageHit, LocalVectorStore, VectorStore}

/** One corpus as the sessions see it: the simulated user, the store that
  * serves lookups, and the local copy of the vectors the checks scan.
  */
final case class Corpus(
    user: SimulatedUser,
    local: LocalVectorStore,
    store: VectorStore,
    storeLayer: String, // span prefix of the store's layer: store.local or store.spark
    mD: Option[DbAlignMatrix],
) {
  val cats: Seq[Int] = user.queryCategories
}

/** A search session: one query category of one corpus under one method. */
final case class SessionKey(corpus: Int, cat: Int, method: MethodConfig)

/** A `topImages` call kept for the correctness checks. */
final case class StoreCall(q: Array[Float], exclude: Set[Long], hits: IndexedSeq[ImageHit])

/** `VectorStore` decorator handed to `SearchSession.run`: it stamps the
  * time each `topImages` call returns and how long the delegate took, which
  * splits the program's own rounds into store and non-store time. One per
  * session, so it needs no locking.
  */
final class TimedStore(underlying: VectorStore, record: Boolean) extends VectorStore {
  val returnedAt = ArrayBuffer.empty[Long]
  val storeNanos = ArrayBuffer.empty[Long]
  val calls = ArrayBuffer.empty[StoreCall]

  override def dim: Int = underlying.dim
  override def nVectors: Long = underlying.nVectors
  override def nImages: Long = underlying.nImages

  override def topImages(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
    val t0 = System.nanoTime()
    val hits = underlying.topImages(q, k, exclude)
    val t1 = System.nanoTime()
    storeNanos += t1 - t0
    returnedAt += t1
    if (record) calls += StoreCall(q.clone(), exclude, hits)
    hits
  }
}

/** A finished untraced session with its per-round times. */
final case class SessionRun(
    key: SessionKey,
    outcome: SearchOutcome,
    nanos: Long,
    roundNanos: IndexedSeq[Long],
    nonStoreNanos: IndexedSeq[Long],
    calls: IndexedSeq[StoreCall],
)

object Sessions {

  /** Run one session through the program's own loop, `SearchSession.run`. */
  def run(corpora: IndexedSeq[Corpus], key: SessionKey, record: Boolean): SessionRun = {
    val c = corpora(key.corpus)
    val timed = new TimedStore(c.store, record)
    val start = System.nanoTime()
    val outcome = SearchSession.run(timed, c.user, key.cat, key.method, multiscale = true, mD = c.mD)
    val end = System.nanoTime()
    val stamps = timed.returnedAt.toIndexedSeq
    val rounds = stamps.indices.map(i => stamps(i) - (if (i == 0) start else stamps(i - 1)))
    val nonStore = rounds.indices.map(i => rounds(i) - timed.storeNanos(i))
    SessionRun(key, outcome, end - start, rounds, nonStore, timed.calls.toIndexedSeq)
  }

  /** The Listing-1 loop of `SearchSession` replayed step by step, each
    * layer's public function inside a span. Returns the relevance trace,
    * which must equal `SearchSession.run`'s for the same session.
    */
  def replayTraced(tracer: Tracer, sessionId: Long, c: Corpus, cat: Int, method: MethodConfig): IndexedSeq[Boolean] =
    tracer.session(sessionId) {
      val user = c.user
      val q0 = user.textEmbedding(cat)
      var q = q0
      val examples = ArrayBuffer.empty[Example]
      val seen = scala.collection.mutable.Set.empty[Long]
      val trace = ArrayBuffer.empty[Boolean]
      var found = 0
      var shown = 0
      var exhausted = false
      val topSpan = c.storeLayer + ".topImages"
      while (!exhausted && found < Metrics.DefaultTarget && shown < Metrics.DefaultBudget) {
        tracer.span("bench.round") {
          val hits = tracer.span(topSpan)(c.store.topImages(q, 1, seen.toSet))
          if (hits.isEmpty) exhausted = true
          else {
            val img = hits.head.imgId
            seen += img
            val relevant = tracer.span("bench.user.isRelevant")(user.isRelevant(img, cat))
            trace += relevant
            if (relevant) found += 1
            shown += 1
            if (method != MethodConfig.ZeroShot && found < Metrics.DefaultTarget && shown < Metrics.DefaultBudget) {
              val patches = tracer.span("embed.patchRecords") {
                ClipSim.patchRecords(user.spec, user.meta(img), multiscale = true)
              }
              examples ++= tracer.span("bench.label")(user.labelPatches(patches, cat))
              q = method match {
                case MethodConfig.Aligned(_, cfg) =>
                  val ex = examples.toIndexedSeq
                  tracer.count("core.align.examples", ex.size)
                  tracer.span("core.align")(QueryAligner.align(q0, ex, cfg, c.mD))
                case MethodConfig.ZeroShot => q
                case other => sys.error(s"replay covers zero-shot and the aligner family, not ${other.name}")
              }
            }
          }
        }
      }
      trace.toIndexedSeq
    }
}
