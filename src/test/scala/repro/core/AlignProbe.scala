package repro.core

import scala.collection.mutable.ArrayBuffer

import repro.SparkSpec
import repro.bench.{BenchmarkRunner, MethodConfig, SearchSession, SimulatedUser}
import repro.data.DatasetSpec
import repro.embed.ClipSim
import repro.graph.{DbAlign, DbAlignMatrix, KnnGraph}
import repro.store.{LocalVectorStore, VectorStore}

/** Profiles the aligner's L-BFGS solves on the benchmark's corpora and
  * compares them with solves whose line searches evaluate the loss in full.
  *
  *   sbt "Test/runMain repro.core.AlignProbe <seed>"
  *
  * It builds the `sweep` corpora (the four `DatasetSpec.all()` corpora at
  * sf 0.02, set up by `BenchmarkRunner.prepare`) and the `interactive_local`
  * corpus (LVIS-like, sf 0.2, M_D from a 5,000-vector stride sample), each
  * re-seeded as the benchmark does. It plays one session per query category
  * and aligner method (few-shot, query align and SeeSaw on the sweep
  * corpora, SeeSaw on `interactive_local`), records every aligner call and
  * checks each session's trace against `SearchSession.run`.
  *
  * For each (corpus, method) it prints the mean iterations and line-search
  * trials per solve, the fraction of solves that ran out of iterations, the
  * fraction of line searches that accepted their first step a = 1, and the
  * median ms per solve of `QueryAligner.align` and of the same solve along
  * full-evaluation lines. Then it re-solves every call along full-evaluation
  * lines, counts the solves whose float query differs, replays every session
  * with that aligner, and prints each session whose trace differs with its
  * AP before and after.
  */
object AlignProbe {
  private val Reps = 5
  // QueryAligner.align's solve settings; `main` checks the replica below
  // against it call by call.
  private val MaxIters = 80
  private val GradTol = 1e-5

  private final case class Corpus(name: String, store: VectorStore, user: SimulatedUser, mD: Option[DbAlignMatrix])

  private final case class Call(q0: Array[Float], examples: IndexedSeq[Example], cfg: AlignerConfig, mD: Option[DbAlignMatrix]) {
    def loss: LossFunction = new LossFunction(q0, examples, cfg.lambda, cfg.lambdaC, cfg.lambdaD, mD)
  }

  /** Forwards to the loss's own point and line, counting line searches and
    * those whose first trial, a = 1, was accepted.
    */
  private final class Counting(loss: LossFunction) extends LBFGS.Objective {
    var searches = 0
    var firstStep = 0
    override def valueAndGradient(x: Array[Double]): (Double, Array[Double]) = loss.valueAndGradient(x)
    override def point(x: Array[Double]): LBFGS.Point = loss.point(x)
    override def line(p: LBFGS.Point, d: Array[Double]): LBFGS.Line = {
      val l = loss.line(p, d)
      searches += 1
      new LBFGS.Line {
        private var trials = 0
        override def phi(a: Double): Double = { trials += 1; l.phi(a) }
        override def slope(a: Double): Double = l.slope(a)
        override def at(a: Double): LBFGS.Point = { if (trials == 1 && a == 1.0) firstStep += 1; l.at(a) }
      }
    }
  }

  /** `QueryAligner.align`'s solve from q₀ on `objective`, a call's loss. */
  private def align(q0: Array[Float], objective: LBFGS.Objective): (Array[Float], LBFGS.Result) = {
    val res = LBFGS.minimize(objective, Linalg.toDouble(Linalg.normalize(q0)), MaxIters, GradTol)
    val q = if (Linalg.normD(res.x) < 1e-9) Linalg.normalize(q0) else Linalg.toFloat(Linalg.normalizeD(res.x))
    (q, res)
  }

  /** A call's loss with the default line: every trial a full evaluation. */
  private def fullLine(call: Call): LBFGS.Objective = {
    val loss = call.loss
    (w: Array[Double]) => loss.valueAndGradient(w)
  }

  /** `SearchSession.run`'s vector loop for an aligned method, with the
    * aligner passed in; returns the trace.
    */
  private def session(c: Corpus, cat: Int, cfg: AlignerConfig,
      aligner: Call => Array[Float]): IndexedSeq[Boolean] = {
    val q0 = c.user.textEmbedding(cat)
    var q = q0
    val examples = ArrayBuffer.empty[Example]
    var seen = Set.empty[Long]
    val trace = ArrayBuffer.empty[Boolean]
    var found = 0
    var shown = 0
    while (found < Metrics.DefaultTarget && shown < Metrics.DefaultBudget) {
      val hits = c.store.topImages(q, 1, seen)
      if (hits.isEmpty) return trace.toIndexedSeq
      val img = hits.head.imgId
      seen += img
      val relevant = c.user.isRelevant(img, cat)
      trace += relevant
      if (relevant) found += 1
      shown += 1
      if (found < Metrics.DefaultTarget && shown < Metrics.DefaultBudget) {
        examples ++= c.user.labelPatches(ClipSim.patchRecords(c.user.spec, c.user.meta(img), multiscale = true), cat)
        q = aligner(Call(q0, examples.toIndexedSeq, cfg, c.mD))
      }
    }
    trace.toIndexedSeq
  }

  /** Median ms per call of `body` over `n` calls after one warm-up. */
  private def msPerCall(n: Int)(body: Int => Unit): Double = {
    def once(): Double = {
      val t0 = System.nanoTime()
      var i = 0
      while (i < n) { body(i); i += 1 }
      (System.nanoTime() - t0) / 1e6 / n
    }
    once()
    Array.fill(Reps)(once()).sorted.apply(Reps / 2)
  }

  private def reseed(s: DatasetSpec, seed: Long): DatasetSpec = s.copy(seed = s.seed + 1000L * seed)

  def main(args: Array[String]): Unit = {
    val seed = if (args.isEmpty) 0L else args(0).toLong
    val spark = SparkSpec.shared
    val sweep = DatasetSpec.all().map { s =>
      val a = BenchmarkRunner.prepare(spark, reseed(s, seed), 0.02, multiscale = true, needMd = true, needGraph = false)
      Corpus(s"sweep ${s.name}", a.store, a.user, a.mD)
    }
    val local = {
      val spec = reseed(DatasetSpec.lvisLike(), seed)
      val store = LocalVectorStore.build(spec, 0.2, multiscale = true)
      val all = store.vecs.toIndexedSeq
      val stride = all.length / 5000
      val sample = (0 until 5000).map(i => all(i * stride))
      val graph = KnnGraph.nnDescent(sample, BenchmarkRunner.DbAlignK, BenchmarkRunner.DefaultSigma)
      Corpus(s"interactive_local ${spec.name}", store, new SimulatedUser(spec, 0.2), Some(DbAlign.fromGraphLocal(graph, sample)))
    }
    val runs = sweep.flatMap(c => Seq(MethodConfig.FewShot, MethodConfig.QueryAlign, MethodConfig.SeeSaw).map(c -> _)) :+
      (local -> MethodConfig.SeeSaw)

    println(f"seed $seed%-4d ${"corpus"}%-28s ${"method"}%-14s ${"calls"}%6s ${"ex"}%5s ${"iters"}%6s ${"evals"}%6s " +
      f"${"unconv"}%6s ${"first"}%6s ${"ms"}%7s ${"ms full"}%7s ${"differ"}%6s ${"max|d|"}%8s")
    var allCalls = 0; var allDiffer = 0; var allSessions = 0; var allTraces = 0
    val apChanges = ArrayBuffer.empty[String]
    for ((c, m) <- runs) {
      val calls = ArrayBuffer.empty[Call]
      val traces = c.user.queryCategories.map { cat =>
        val t = session(c, cat, m.cfg, call => { calls += call; QueryAligner.align(call.q0, call.examples, call.cfg, call.mD) })
        require(t == SearchSession.run(c.store, c.user, cat, m, multiscale = true, mD = c.mD).trace,
          s"${c.name} ${m.name} cat $cat: the probe's session differs from SearchSession.run")
        cat -> t
      }
      val n = calls.length
      var iters = 0L; var evals = 0L; var unconverged = 0; var searches = 0L; var firstStep = 0L
      var differ = 0; var maxDelta = 0.0
      for (call <- calls) {
        val counting = new Counting(call.loss)
        val (q, res) = align(call.q0, counting)
        require(q.sameElements(QueryAligner.align(call.q0, call.examples, call.cfg, call.mD)),
          "the probe's solve differs from QueryAligner.align")
        iters += res.iterations; evals += res.evaluations
        if (!res.converged) unconverged += 1
        searches += counting.searches; firstStep += counting.firstStep
        val (qFull, _) = align(call.q0, fullLine(call))
        if (!q.sameElements(qFull)) differ += 1
        for (j <- q.indices) maxDelta = math.max(maxDelta, math.abs(q(j).toDouble - qFull(j)))
      }
      val ms = msPerCall(n)(i => QueryAligner.align(calls(i).q0, calls(i).examples, calls(i).cfg, calls(i).mD))
      val msFull = msPerCall(n)(i => align(calls(i).q0, fullLine(calls(i))))
      val exMean = calls.map(_.examples.length.toDouble).sum / math.max(n, 1)
      println(f"seed $seed%-4d ${c.name}%-28s ${m.name}%-14s $n%6d $exMean%5.1f ${iters.toDouble / n}%6.1f " +
        f"${evals.toDouble / n}%6.1f ${unconverged.toDouble / n}%6.3f ${firstStep.toDouble / searches}%6.3f $ms%7.3f " +
        f"$msFull%7.3f $differ%6d $maxDelta%8.1e")
      allCalls += n; allDiffer += differ
      for ((cat, t) <- traces) {
        val tFull = session(c, cat, m.cfg, call => align(call.q0, fullLine(call))._1)
        allSessions += 1
        if (tFull != t) {
          allTraces += 1
          val total = c.user.totalRelevant(cat)
          apChanges += f"  ${c.name} ${m.name} cat $cat: AP ${Metrics.averagePrecision(tFull, total)}%.4f (full lines) -> " +
            f"${Metrics.averagePrecision(t, total)}%.4f (projected lines)"
        }
      }
    }
    println(s"solves whose float query differs from full-evaluation lines: $allDiffer of $allCalls")
    println(s"sessions whose trace differs: $allTraces of $allSessions")
    apChanges.foreach(println)
    spark.stop()
  }
}
