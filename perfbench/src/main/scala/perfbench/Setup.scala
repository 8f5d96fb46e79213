package perfbench

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchmarkRunner, DatasetArtifacts, SimulatedUser}
import repro.data.DatasetSpec
import repro.embed.ClipSim
import repro.graph.{DbAlign, KnnGraph}
import repro.store.{LocalVectorStore, SparkVectorStore}

/** A finished set-up: the corpora the sessions run on, the per-dataset
  * artifacts the query-parallel runner takes, and the release hook.
  */
final case class Prepared(
    corpora: IndexedSeq[Corpus],
    artifacts: IndexedSeq[(DatasetSpec, DatasetArtifacts)],
    totalSeconds: Double,
    release: () => Unit,
)

object Setup {

  /** A set-up step; with a tracer it is also a span. */
  private def step[T](tracer: Option[Tracer], name: String)(body: => T): T =
    tracer.fold(body)(_.span(name)(body))

  private def count(tracer: Option[Tracer], name: String, v: Double): Unit = tracer.foreach(_.count(name, v))

  /** One interactive corpus: the user's metadata, the local store, on
    * `interactive_spark` the cached Spark table, the kNN graph and M_D.
    * M_D comes from a deterministic stride sample of `mdSample` vectors
    * when set, else from the full graph.
    */
  def interactive(
      spark: SparkSession,
      spec: DatasetSpec,
      sf: Double,
      useSpark: Boolean,
      mdSample: Option[Int],
      tracer: Option[Tracer],
  ): Prepared = {
    val t0 = System.nanoTime()
    val user = step(tracer, "data.metas") {
      val u = new SimulatedUser(spec, sf)
      u.nImages
      u.queryCategories
      u
    }
    val local = step(tracer, "store.local.build")(LocalVectorStore.build(spec, sf, multiscale = true))
    val sparkStore = if (!useSpark) None else Some(step(tracer, "store.spark.build") {
      val s = SparkVectorStore.fromDataFrame(spark, ClipSim.patchVectors(spark, spec, sf, multiscale = true), spec.dim)
      s.nVectors // materializes the cached table
      s.nImages
      s
    })
    val all = local.vecs.toIndexedSeq
    val vecs = mdSample match {
      case None => all
      case Some(n) =>
        val stride = all.length / n
        (0 until n).map(i => all(i * stride))
    }
    val graph = step(tracer, "graph.knn")(KnnGraph.nnDescent(vecs, BenchmarkRunner.DbAlignK, BenchmarkRunner.DefaultSigma))
    val mD = step(tracer, "graph.md") {
      if (useSpark) DbAlign.fromGraphSpark(spark, graph, vecs) else DbAlign.fromGraphLocal(graph, vecs)
    }
    val total = Stats.seconds(System.nanoTime() - t0)
    count(tracer, "graph.knn_edges", graph.neighbors.map(_.length.toDouble).sum)
    count(tracer, "graph.md_vectors", vecs.length)
    count(tracer, "store.vectors", local.nVectors.toDouble)
    count(tracer, "store.images", local.nImages.toDouble)
    val corpus = Corpus(user, local, sparkStore.getOrElse(local),
      if (useSpark) "store.spark" else "store.local", Some(mD))
    Prepared(IndexedSeq(corpus), IndexedSeq.empty, total, () => sparkStore.foreach(_.unpersist()))
  }

  /** The sweep's set-up is the program's own `BenchmarkRunner.prepare`
    * (full kNN graph, M_D on Spark) per corpus, plus the user's metadata.
    * With a tracer, the steps inside `prepare` are then repeated one by one
    * in their own spans, outside the set-up time, to split it by layer.
    */
  def sweep(spark: SparkSession, specs: Seq[DatasetSpec], sf: Double, tracer: Option[Tracer]): Prepared = {
    val t0 = System.nanoTime()
    val arts = specs.map { spec =>
      val a = step(tracer, "bench.sweep.prepare") {
        BenchmarkRunner.prepare(spark, spec, sf, multiscale = true, needMd = true, needGraph = false)
      }
      step(tracer, "data.metas") { a.user.nImages; a.user.queryCategories }
      spec -> a
    }.toIndexedSeq
    val total = Stats.seconds(System.nanoTime() - t0)
    arts.foreach { case (spec, a) =>
      val vecs = a.store.vecs.toIndexedSeq
      count(tracer, "graph.md_vectors", vecs.length)
      count(tracer, "store.vectors", a.store.nVectors.toDouble)
      count(tracer, "store.images", a.store.nImages.toDouble)
      if (tracer.isDefined) {
        step(tracer, "store.local.build")(LocalVectorStore.build(spec, sf, multiscale = true))
        val g = step(tracer, "graph.knn")(KnnGraph.nnDescent(vecs, BenchmarkRunner.DbAlignK, BenchmarkRunner.DefaultSigma))
        step(tracer, "graph.md")(DbAlign.fromGraphSpark(spark, g, vecs))
        count(tracer, "graph.knn_edges", g.neighbors.map(_.length.toDouble).sum)
      }
    }
    val corpora = arts.map { case (_, a) => Corpus(a.user, a.store, a.store, "store.local", a.mD) }
    Prepared(corpora, arts, total, () => ())
  }
}
