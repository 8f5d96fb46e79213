package repro.store

import scala.collection.mutable.ArrayBuffer

import repro.bench.{BenchmarkRunner, MethodConfig, SearchSession, SimulatedUser}
import repro.data.DatasetSpec
import repro.embed.PatchRecord
import repro.graph.{DbAlign, KnnGraph}

/** Times the phases of an exact local-store lookup on the benchmark's
  * `interactive_local` corpus, replaying the lookups of one SeeSaw pass.
  *
  *   sbt "Test/runMain repro.store.LookupProbe <seed>"
  *
  * It builds the corpus as the benchmark does (LVIS-like, sf 0.2, the
  * benchmark's re-seeding, M_D from a 5,000-vector stride sample), runs one
  * SeeSaw session per query category against the store and records every
  * lookup. Then it replays them, one lookup at a time, and prints the mean
  * time per lookup of each phase over several repetitions: `query` (the
  * per-query bound constants), pass 1 (the bounds of every row, over the
  * whole store and chunk by chunk on one thread), and the whole lookup on a
  * one-chunk store and on the store with its own chunk count (its chunks
  * run in parallel). Every replayed hit must equal the recorded one in
  * image id, patch id and score bits.
  */
object LookupProbe {
  private val Reps = 7

  private final class Recording(underlying: VectorStore) extends VectorStore {
    val calls = ArrayBuffer.empty[(Array[Float], Int, Set[Long], IndexedSeq[ImageHit])]
    override def dim: Int = underlying.dim
    override def nVectors: Long = underlying.nVectors
    override def nImages: Long = underlying.nImages
    override def topImages(q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] = {
      val hits = underlying.topImages(q, k, exclude)
      calls += ((q.clone(), k, exclude, hits))
      hits
    }
  }

  private def bits(hits: IndexedSeq[ImageHit]): IndexedSeq[(Long, Int, Long)] =
    hits.map(h => (h.imgId, h.patchId, java.lang.Double.doubleToRawLongBits(h.score)))

  /** Mean ms per call of `body` over `n` calls: the median, lowest and
    * highest of `Reps` repetitions after one warm-up.
    */
  private def time(name: String, n: Int)(body: Int => Unit): Unit = {
    def once(): Double = {
      val t0 = System.nanoTime()
      var i = 0
      while (i < n) { body(i); i += 1 }
      (System.nanoTime() - t0) / 1e6 / n
    }
    once()
    val ms = Array.fill(Reps)(once()).sorted
    println(f"$name%-30s ${ms(Reps / 2)}%.3f ms  [${ms.head}%.3f, ${ms.last}%.3f]")
  }

  def main(args: Array[String]): Unit = {
    val seed = if (args.isEmpty) 0L else args(0).toLong
    val base = DatasetSpec.lvisLike()
    val spec = base.copy(seed = base.seed + 1000L * seed)
    val sf = 0.2
    val store = LocalVectorStore.build(spec, sf, multiscale = true)
    val all = store.vecs.toIndexedSeq
    val stride = all.length / 5000
    val sample = (0 until 5000).map(i => all(i * stride))
    val graph = KnnGraph.nnDescent(sample, BenchmarkRunner.DbAlignK, BenchmarkRunner.DefaultSigma)
    val mD = DbAlign.fromGraphLocal(graph, sample)
    val user = new SimulatedUser(spec, sf)

    val rec = new Recording(store)
    for (cat <- user.queryCategories)
      SearchSession.run(rec, user, cat, MethodConfig.SeeSaw, multiscale = true, mD = Some(mD))
    val calls = rec.calls.toIndexedSeq
    val n = calls.length
    val oneChunk = LocalVectorStore.withProcessors(store.vecs.indices.map { i =>
      PatchRecord(store.imgIds(i), store.patchIds(i), 0, 0, 1, 1, store.vecs(i))
    }, 1)
    println(s"seed $seed: ${store.nVectors} rows, ${store.nImages} images, ${store.nChunks} chunks, $n lookups")

    for ((s, name) <- Seq(store -> "own chunks", oneChunk -> "1 chunk"); (q, k, ex, want) <- calls;
         kk <- Seq(k, 10)) {
      val got = s.topImages(q, kk, ex)
      val ref = if (kk == k) want else store.topImages(q, kk, ex)
      require(bits(got) == bits(ref), s"$name: a replayed lookup differs from the recorded one")
    }
    println("hits: bit-identical to the recorded lookups at 1 and own chunks")

    val qbs = calls.map { case (q, _, _, _) => store.prefix.query(q) }
    val rows = store.vecs.length
    var sink = 0.0
    time("query", n)(i => sink += store.prefix.query(calls(i)._1).step)
    time("pass 1, 1 chunk", n)(i => sink += store.prefix.bounds(qbs(i), 0, rows)(0))
    time(s"pass 1, ${store.nChunks} chunks in turn", n) { i =>
      var c = 0
      while (c < store.nChunks) { sink += store.prefix.bounds(qbs(i), store.chunkStarts(c), store.chunkStarts(c + 1))(0); c += 1 }
    }
    time("lookup, 1 chunk", n)(i => sink += oneChunk.topImages(calls(i)._1, calls(i)._2, calls(i)._3).size)
    time(s"lookup, ${store.nChunks} chunks (parallel)", n)(i => sink += store.topImages(calls(i)._1, calls(i)._2, calls(i)._3).size)
    if (sink == 42.0) println("")
  }
}
