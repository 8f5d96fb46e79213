package perfbench

import java.util.concurrent.{Executors, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import scala.collection.mutable.ArrayBuffer
import scala.util.{Failure, Success, Try}

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.bench.{BenchmarkRunner, QueryResult}

/** Counts Spark jobs and tasks; listener events arrive asynchronously. */
final class JobCounter extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.incrementAndGet()

  /** (jobs, tasks) once no event has arrived for a while. */
  def settled(): (Long, Long) = {
    var last = (-1L, -1L)
    var now = (jobs.get, tasks.get)
    var waited = 0
    while (now != last && waited < 50) {
      Thread.sleep(100); waited += 1
      last = now; now = (jobs.get, tasks.get)
    }
    now
  }
}

final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

object Main {
  val Threads: Int = Runtime.getRuntime.availableProcessors

  /** Set-ups per untraced run; `setup_s` is their median. */
  val SetupRepeats = 3

  /** Every how many sessions the store calls are kept for the brute-force
    * checks; coprime with the number of methods, so every method is checked.
    */
  val RecordEvery = 7

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    })
    require(a.seconds >= 1, "--seconds must be at least 1")
    a
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val workload = Workload.all(Threads).find(_.name == args.workload)
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${args.workload}"))
    val spark = SparkSession.builder()
      .master(s"local[$Threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", Threads.toString)
      .config("spark.sql.warehouse.dir", ".bench_build/spark-warehouse")
      .config("spark.local.dir", ".bench_build/spark-local")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try new Runner(spark, workload, args).run()
    finally spark.stop()
  }
}

/** Drives one run of one workload: set-up, warm-up, the timed region, then
  * the correctness checks and the report.
  */
final class Runner(spark: SparkSession, w: Workload, args: Args) {
  import Main._

  private val report = new Report(w.name)
  private val attempted = new AtomicLong
  private val failed = new AtomicLong
  private var correct = true

  private val born = System.nanoTime()

  /** Progress on standard error, so a slow phase is visible. */
  private def phase(msg: String): Unit =
    System.err.println(f"[${w.name}] ${Stats.seconds(System.nanoTime() - born)}%7.2f s  $msg")

  private def fail(msg: String): Unit = {
    System.err.println(s"[${w.name}] CHECK FAILED: $msg")
    correct = false
  }

  def run(): Unit = {
    if (args.trace) traced() else untraced()
    if (failed.get > 0) correct = false
    report.print(correct, math.max(1L, attempted.get), failed.get)
    if (!correct) System.err.println(s"[${w.name}] FAILED: outputs did not pass the correctness checks")
  }

  // ---- set-up -------------------------------------------------------------

  private def prepare(tracer: Option[Tracer]): Prepared = w match {
    case i: Interactive => Setup.interactive(spark, i.spec(args.seed), i.sf, i.useSpark, i.mdSample, tracer)
    case s: Sweep => Setup.sweep(spark, s.specs(args.seed), s.sf, tracer)
  }

  /** Every session of one pass, the corpora interleaved category by
    * category, so any prefix of the pass mixes them.
    */
  private def keysOf(p: Prepared): IndexedSeq[SessionKey] = {
    val ranked = for {
      (c, ci) <- p.corpora.zipWithIndex
      (cat, rank) <- c.cats.zipWithIndex
      m <- w.methods
    } yield (rank, SessionKey(ci, cat, m))
    ranked.sortBy(_._1).map(_._2)
  }

  private def heapMb(): Double = {
    val rt = Runtime.getRuntime
    (0 until 3).foreach { _ => System.gc(); Thread.sleep(50) }
    (rt.totalMemory - rt.freeMemory) / (1024.0 * 1024.0)
  }

  /** Untimed: the first session of every method on every corpus, which
    * covers JIT compilation, the user's lazy metadata and the first Spark jobs.
    */
  private def warmUp(p: Prepared): Unit = {
    val keys = keysOf(p).groupBy(_.corpus).values.flatMap(_.take(w.methods.size)).toIndexedSeq
    closedLoop(keys, None)((_, k) => Sessions.run(p.corpora, k, record = false))
  }

  // ---- closed loops ---------------------------------------------------------

  /** `w.clients` clients take sessions in pass order, each waiting for its
    * session before taking the next. With `seconds` they wrap around until
    * the time has passed, finishing the session they hold; without, they run
    * each key once.
    */
  private def closedLoop[R](keys: IndexedSeq[SessionKey], seconds: Option[Double])(one: (Int, SessionKey) => R)
      : (IndexedSeq[(Int, SessionKey, Try[R])], Long) = {
    val next = new AtomicInteger(0)
    val done = new java.util.concurrent.ConcurrentLinkedQueue[(Int, SessionKey, Try[R])]()
    val pool = Executors.newFixedThreadPool(w.clients)
    val t0 = System.nanoTime()
    val deadline = seconds.map(s => t0 + (s * 1e9).toLong)
    val workers = (0 until w.clients).map { _ =>
      pool.submit(new Runnable {
        def run(): Unit = {
          var i = next.getAndIncrement()
          while (deadline.fold(i < keys.length)(System.nanoTime() < _)) {
            val k = keys(i % keys.length)
            done.add((i, k, Try(one(i, k))))
            i = next.getAndIncrement()
          }
        }
      })
    }
    workers.foreach(_.get())
    val elapsed = System.nanoTime() - t0
    pool.shutdown()
    pool.awaitTermination(1, TimeUnit.MINUTES)
    import scala.jdk.CollectionConverters._
    (done.asScala.toIndexedSeq.sortBy(_._1), elapsed)
  }

  private def runSessions(p: Prepared, keys: IndexedSeq[SessionKey], seconds: Option[Double])
      : (IndexedSeq[(Int, SessionKey, Try[SessionRun])], Long) =
    closedLoop(keys, seconds)((i, k) => Sessions.run(p.corpora, k, record = i % RecordEvery == 0))

  // ---- checks ---------------------------------------------------------------

  /** Count sessions; a thrown session fails. Returns the successful ones. */
  private def tally[R](done: Seq[(Int, SessionKey, Try[R])]): Seq[(Int, SessionKey, R)] = {
    attempted.addAndGet(done.size.toLong)
    done.flatMap {
      case (i, k, Success(r)) => Some((i, k, r))
      case (_, k, Failure(e)) =>
        failed.incrementAndGet()
        fail(s"session $k threw ${e.getClass.getSimpleName}: ${e.getMessage}")
        None
    }
  }

  /** Brute-force check of the kept store calls; returns the top-1 exact share. */
  private def checkStoreCalls(p: Prepared, runs: Seq[SessionRun]): Double = {
    val brute = p.corpora.map(c => new BruteForce(c.local))
    val jobs = runs.flatMap(r => r.calls.map(c => (r, c))).toIndexedSeq
    val results = new Array[(Boolean, Boolean)](jobs.length)
    java.util.stream.IntStream.range(0, jobs.length).parallel().forEach { j =>
      val (r, c) = jobs(j)
      val v = brute(r.key.corpus).check(c)
      results(j) = (v.ok, v.top1Exact)
    }
    val bad = jobs.indices.filterNot(results(_)._1).map(jobs(_)._1.key).distinct
    bad.foreach { k =>
      failed.incrementAndGet()
      fail(s"session $k: a returned hit was already seen or its score is not its true max-patch score")
    }
    if (jobs.isEmpty) { fail("no store calls were kept for checking"); 0.0 }
    else results.count(_._2).toDouble / jobs.length
  }

  /** Sessions that ran more than once must repeat their trace exactly. */
  private def checkRepeats(runs: Seq[(Int, SessionKey, SessionRun)], reference: Map[SessionKey, IndexedSeq[Boolean]]): Unit =
    runs.foreach { case (_, k, r) =>
      if (reference.get(k).exists(_ != r.outcome.trace)) {
        failed.incrementAndGet()
        fail(s"session $k did not repeat its relevance trace")
      }
    }

  /** First outcome per session key, running the `keys` the timed region did
    * not reach untimed, so that `map` always covers every session of a pass
    * exactly once.
    */
  private def completePass(p: Prepared, keys: IndexedSeq[SessionKey], runs: Seq[(Int, SessionKey, SessionRun)])
      : Map[SessionKey, SessionRun] = {
    val first = runs.groupBy(_._2).map { case (k, rs) => k -> rs.minBy(_._1)._3 }
    val missing = keys.distinct.filterNot(first.contains)
    val (extra, _) = closedLoop(missing, None)((_, k) => Sessions.run(p.corpora, k, record = false))
    first ++ tally(extra).map { case (_, k, r) => k -> r }
  }

  private def roundStats(runs: Seq[SessionRun]): (Seq[Double], Seq[Double]) =
    (runs.flatMap(_.roundNanos.map(Stats.ms)), runs.flatMap(_.nonStoreNanos.map(Stats.ms)))

  // ---- untraced run: end-to-end metrics ---------------------------------------

  private def untraced(): Unit = {
    // Only the last set-up stays reachable, so heap_mb counts one copy.
    var p = prepare(None)
    val setupTimes = ArrayBuffer(p.totalSeconds)
    while (setupTimes.size < SetupRepeats) {
      p.release()
      p = null
      p = prepare(None)
      setupTimes += p.totalSeconds
    }
    val setupS = Stats.median(setupTimes.toSeq)
    phase("set-up done")
    val heap = heapMb()
    val keys = keysOf(p)
    warmUp(p)
    phase("warm-up done")

    // Interactive: the client's closed loop is the timed region, and `map`
    // covers one pass, completed untimed. Sweep: the query-parallel runner's
    // whole passes are, `map` covers its first pass, and then the sessions of
    // every second category of each corpus, all methods, run through
    // SearchSession.run on as many clients, for round latency and to check
    // the runner's results.
    val (runs, rate, rateNote, aps) = w match {
      case _: Interactive =>
        val (done, elapsed) = runSessions(p, keys, Some(args.seconds.toDouble))
        val ok = tally(done)
        val pass = completePass(p, keys, ok)
        checkRepeats(ok, pass.map { case (k, r) => k -> r.outcome.trace })
        val runs = ok.map(_._3)
        report.note(s"one pass: ${pass.size} sessions, ${pass.values.map(_.outcome.nSeen).sum} rounds")
        (runs, runs.map(_.roundNanos.size).sum / Stats.seconds(elapsed),
          s"${runs.size} sessions in ${Stats.seconds(elapsed)} s", pass.values.map(_.outcome.ap).toSeq)
      case s: Sweep =>
        val (rate, passes, first) = runnerPasses(p, s, args.seconds)
        val sample = keys.filter(k => p.corpora(k.corpus).cats.indexOf(k.cat) % 2 == 0)
        val (done, _) = runSessions(p, sample, None)
        val runs = tally(done).map(_._3)
        checkRunnerAgainst(runs, first)
        report.note(s"one pass: ${first.size} sessions, ${first.map(_._2.nSeen).sum} rounds")
        runs.groupBy(_.key.method.name).foreach { case (m, rs) =>
          val r = rs.flatMap(_.roundNanos.map(Stats.ms))
          report.note(f"rounds of $m: n=${r.size} p50=${Stats.median(r)}%.3f ms p95=${Stats.quantile(r, 0.95)}%.3f ms")
        }
        (runs, rate, s"$passes whole BenchmarkRunner pass(es)", first.map(_._2.ap))
    }
    phase("sessions done")
    val top1 = checkStoreCalls(p, runs)
    phase("checks done")

    val (rounds, _) = roundStats(runs)
    if (rounds.isEmpty) fail("no rounds completed")
    else {
      val n = rounds.length
      report.add("round_p50_ms", Stats.median(rounds), "ms", s"n=$n rounds, ${w.clients} client(s)")
      report.add("round_p95_ms", Stats.quantile(rounds, 0.95), "ms", s"n=$n rounds, ${(n * 0.05).toInt} beyond")
      report.add("rounds_per_s", rate, "1/s", rateNote)
    }
    report.add("map", Stats.mean(aps), "AP", s"n=${aps.size} sessions, one pass")
    report.add("setup_s", setupS, "s", s"median of $SetupRepeats set-ups: ${setupTimes.map(t => f"$t%.3f").mkString(", ")}")
    report.add("heap_mb", heap, "MB", "live heap after set-up and a forced GC")
    report.note(f"store.top1_exact_frac = $top1%.4f over the kept store calls")
  }

  /** The sweep's throughput: whole `BenchmarkRunner.run` passes over every
    * corpus, at least one and then as many more as are expected to fit in
    * `seconds`; rounds are the images shown. Later passes must repeat the
    * first. Returns (rounds/s, passes, the first pass's results).
    */
  private def runnerPasses(p: Prepared, s: Sweep, seconds: Double): (Double, Int, Seq[(Int, QueryResult)]) = {
    var first = Seq.empty[(Int, QueryResult)]
    var rounds = 0L
    var passes = 0
    val t0 = System.nanoTime()
    var elapsed = 0L
    while (passes == 0 || elapsed.toDouble * (passes + 1) / passes <= seconds * 1e9) {
      val pass = p.artifacts.indices.flatMap { ci =>
        val (spec, arts) = p.artifacts(ci)
        Try(BenchmarkRunner.run(spark, spec, s.sf, s.methods, multiscale = true, artifacts = Some(arts))) match {
          case Success(rs) => rs.map(ci -> _)
          case Failure(e) =>
            val n = p.corpora(ci).cats.size * s.methods.size
            attempted.addAndGet(n.toLong); failed.addAndGet(n.toLong)
            fail(s"BenchmarkRunner.run on ${spec.name} threw ${e.getMessage}")
            Seq.empty
        }
      }
      attempted.addAndGet(pass.size.toLong)
      if (passes == 0) first = pass
      else if (pass != first) {
        failed.addAndGet(pass.size.toLong)
        fail("a BenchmarkRunner pass did not repeat the first")
      }
      rounds += pass.map(_._2.nSeen).sum
      passes += 1
      elapsed = System.nanoTime() - t0
    }
    (rounds / Stats.seconds(elapsed), passes, first)
  }

  /** Each session run through `SearchSession.run` must match the runner's
    * result for it on the same artifacts.
    */
  private def checkRunnerAgainst(runs: Seq[SessionRun], runner: Seq[(Int, QueryResult)]): Unit = {
    val byKey = runner.map { case (ci, q) => (ci, q.cat, q.method) -> q }.toMap
    runs.foreach { r =>
      val o = r.outcome
      byKey.get((r.key.corpus, o.cat, o.method)) match {
        case Some(q) if q.ap == o.ap && q.nSeen == o.nSeen && q.nFound == o.nFound =>
        case other =>
          failed.incrementAndGet()
          fail(s"session ${r.key}: SearchSession.run gave ap=${o.ap} seen=${o.nSeen}, the runner $other")
      }
    }
  }

  // ---- traced run: per-layer metrics ------------------------------------------

  private def traced(): Unit = {
    val tracer = new Tracer
    val p = prepare(Some(tracer))
    phase("set-up done")
    val keys = keysOf(p)
    warmUp(p)
    phase("warm-up done")

    // The sweep's runner gets one pass, timed as a span per corpus.
    w match {
      case s: Sweep =>
        p.artifacts.foreach { case (spec, arts) =>
          tracer.span("bench.sweep.run") {
            BenchmarkRunner.run(spark, spec, s.sf, s.methods, multiscale = true, artifacts = Some(arts))
          }
        }
        phase("runner pass done")
      case _ =>
    }

    val half = args.seconds / 2.0
    val (plain, _) = runSessions(p, keys, Some(half))
    val plainOk = tally(plain)
    val (_, nonStore) = roundStats(plainOk.map(_._3))

    val counter = new JobCounter
    spark.sparkContext.addSparkListener(counter)
    val (jobs0, tasks0) = counter.settled()
    val (replayed, _) = closedLoop(keys, Some(half)) { (i, k) =>
      Sessions.replayTraced(tracer, i.toLong + 1, p.corpora(k.corpus), k.cat, k.method)
    }
    val (jobs1, tasks1) = counter.settled()
    spark.sparkContext.removeSparkListener(counter)
    val replayOk = tally(replayed)
    val tracedRounds = replayOk.map(_._3.length).sum

    phase("traced replay done")
    // The replay must reproduce SearchSession.run exactly.
    val reference = completePass(p, replayOk.map(_._2).toIndexedSeq, plainOk).map { case (k, r) => k -> r.outcome.trace }
    replayOk.foreach { case (_, k, trace) =>
      if (reference(k) != trace) {
        failed.incrementAndGet()
        fail(s"traced replay of $k diverged from SearchSession.run")
      }
    }
    checkRepeats(plainOk, reference)
    val top1 = checkStoreCalls(p, plainOk.map(_._3))
    phase("checks done")

    val out = java.nio.file.Paths.get(".bench_build", "traces", s"${w.name}-seed${args.seed}.jsonl")
    tracer.writeJsonLines(out)
    report.note(s"spans written to $out")

    val spans = tracer.all
    def durations(name: String) = spans.filter(_.name == name).map(s => Stats.ms(s.nanos))
    def p50(name: String) = { val d = durations(name); if (d.isEmpty) 0.0 else Stats.median(d) }
    def p95(name: String) = { val d = durations(name); if (d.isEmpty) 0.0 else Stats.quantile(d, 0.95) }

    for (layer <- Seq("store.local", "store.spark")) {
      val n = durations(s"$layer.topImages").size
      report.add(s"$layer.topimages_p50_ms", p50(s"$layer.topImages"), "ms", s"n=$n")
      report.add(s"$layer.topimages_p95_ms", p95(s"$layer.topImages"), "ms", s"n=$n")
      report.add(s"$layer.calls", n.toDouble, "count")
    }
    val sparkCalls = durations("store.spark.topImages").size
    report.add("store.spark.jobs_per_call", if (sparkCalls == 0) 0.0 else (jobs1 - jobs0).toDouble / sparkCalls, "count")
    report.add("store.spark.tasks_per_call", if (sparkCalls == 0) 0.0 else (tasks1 - tasks0).toDouble / sparkCalls, "count")
    report.add("store.top1_exact_frac", top1, "fraction")
    report.add("core.align_p50_ms", p50("core.align"), "ms")
    report.add("core.align_p95_ms", p95("core.align"), "ms")
    report.add("core.align_calls", durations("core.align").size.toDouble, "count")
    report.add("core.align_examples_mean", tracer.countMean("core.align.examples"), "count")
    report.add("embed.patch_records_p50_ms", p50("embed.patchRecords"), "ms")
    report.add("embed.patch_records_calls", durations("embed.patchRecords").size.toDouble, "count")
    report.add("bench.label_p50_ms", p50("bench.label"), "ms")
    report.add("bench.round_nonstore_p50_ms", if (nonStore.isEmpty) 0.0 else Stats.median(nonStore), "ms",
      "untraced, from the store decorator")

    // Set-up steps ran once, each in its own span (on the sweep, once per corpus).
    def stepSeconds(name: String) = spans.filter(_.name == name).map(s => Stats.seconds(s.nanos)).sum
    report.add("graph.knn_s", stepSeconds("graph.knn"), "s")
    report.add("graph.knn_edges", tracer.countSum("graph.knn_edges"), "count")
    report.add("graph.md_s", stepSeconds("graph.md"), "s")
    report.add("graph.md_vectors", tracer.countSum("graph.md_vectors"), "count")
    report.add("store.local.build_s", stepSeconds("store.local.build"), "s")
    report.add("store.spark.build_s", stepSeconds("store.spark.build"), "s")
    report.add("data.metas_s", stepSeconds("data.metas"), "s")
    report.add("store.vectors", tracer.countSum("store.vectors"), "count")
    report.add("store.images", tracer.countSum("store.images"), "count")
    report.add("bench.sweep.prepare_s", stepSeconds("bench.sweep.prepare"), "s")
    report.add("bench.sweep.run_s", stepSeconds("bench.sweep.run"), "s")
    report.add("bench.sweep.sessions", if (w.isInstanceOf[Sweep]) keys.size.toDouble else 0.0, "count")

    // Overhead over the sessions both halves ran: the same work, traced and not.
    val plainNanos = plainOk.groupBy(_._2).map { case (k, rs) => k -> rs.minBy(_._1)._3.nanos }
    val tracedNanos = spans.filter(_.name == "bench.session").groupBy(s => keys(((s.session - 1) % keys.length).toInt))
      .map { case (k, ss) => k -> ss.minBy(_.session).nanos }
    val common = plainNanos.keySet.intersect(tracedNanos.keySet).toSeq
    val overhead = if (common.isEmpty) 0.0 else common.map(plainNanos).sum.toDouble / common.map(tracedNanos).sum - 1.0
    report.add("trace.overhead_frac", overhead, "fraction",
      s"traced/untraced throughput - 1 over ${common.size} sessions run both ways")

    // Self time per layer over the replayed sessions, as a share of session time.
    val sessionSpans = spans.filter(_.session != 0)
    val self = tracer.selfNanos(sessionSpans)
    val sessionTotal = sessionSpans.filter(_.name == "bench.session").map(_.nanos).sum.toDouble
    for (layer <- Seq("store", "core", "embed", "bench")) {
      val t = sessionSpans.filter(_.layer == layer).map(self).sum.toDouble
      report.add(s"self.${layer}_share", if (sessionTotal == 0) 0.0 else t / sessionTotal, "fraction")
      report.add(s"self.${layer}_ms_per_round", if (tracedRounds == 0) 0.0 else t / 1e6 / tracedRounds, "ms")
    }
  }
}
