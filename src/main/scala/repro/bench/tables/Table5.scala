package repro.bench.tables

import org.apache.spark.sql.SparkSession
import repro.bench._
import repro.core.{Metrics, Rng}
import repro.data.DatasetSpec

/** Table 5: per-image annotation time (seconds) by cell — {not marked,
  * marked relevant} × {baseline, seesaw} — with 95% CIs, plus the §5.5
  * end-to-end completion-time comparison on a small set of hard and easy
  * queries. Human subjects are simulated by [[UserTimeModel]] (see its doc
  * and DESIGN.md for the substitution rationale); the search *traces* that
  * decide how many images each simulated user must annotate come from real
  * benchmark runs of both systems.
  */
object Table5 {

  val NUsers = 40 // paper: 20 grad students + 20 MTurk workers
  val TimeLimitSeconds = 360.0
  val SessionBudget = 200 // time limit binds before the image budget

  final case class QueryTiming(
      dataset: String,
      cat: Int,
      hard: Boolean,
      baselineMedian: Double,
      seesawMedian: Double,
  )

  final case class Result(
      cells: Map[(Boolean, Boolean), (Double, Double)], // (marked, seesaw) -> (mean, ci)
      queryTimings: Seq[QueryTiming],
  ) {
    def render: String = {
      val rows = Seq(
        "not marked" -> Seq(cells((false, false)), cells((false, true))),
        "marked relevant" -> Seq(cells((true, false)), cells((true, true))),
      ).map { case (l, cs) => l -> cs.map { case (m, ci) => f"$m%.2f ± $ci%.2f" } }
      TableText.renderCells("Table 5 (measured) — annotation time (s) per image",
        Seq("baseline", "seesaw"), rows) +
        TableText.renderCells(
          s"End-to-end (§5.5, supplementary): median completion time (s), limit $TimeLimitSeconds",
          Seq("baseline", "seesaw"),
          queryTimings.map(q =>
            s"${q.dataset}/cat${q.cat}${if (q.hard) " (hard)" else " (easy)"}" ->
              Seq(f"${q.baselineMedian}%.0f", f"${q.seesawMedian}%.0f")),
        )
    }
  }

  /** The published values. */
  val Paper: String =
    "Table 5 (paper): baseline not-marked 1.98±.10, marked 3.00±.28; " +
      "seesaw not-marked 2.40±.19, marked 4.40±.45. " +
      "§5.5: for hard queries baseline median = 360s (task not completed)."

  def compute(spark: SparkSession, sf: Double = DatasetSpec.BenchSf): Result = {
    // 7 queries as in §5.5: a hard set and an easy set, drawn from the
    // corpus with the widest difficulty spread (LVIS-like).
    val spec = DatasetSpec.lvisLike()
    val arts = BenchmarkRunner.prepare(
      spark, spec, sf, multiscale = true, needMd = true, needGraph = false)
    val coarseStore = repro.store.LocalVectorStore.build(spec, sf, multiscale = false)
    val zs = BenchmarkRunner.zeroShotCoarseAp(arts.user, coarseStore)
    val sorted = zs.toSeq.sortBy(_._2)
    val hardCats = sorted.take(4).map(_._1)
    val easyCats = sorted.reverse.take(3).map(_._1)
    val queries = hardCats.map(_ -> true) ++ easyCats.map(_ -> false)

    val model = UserTimeModel.FromPaper
    val perCell = scala.collection.mutable.Map.empty[(Boolean, Boolean), scala.collection.mutable.ArrayBuffer[Double]]
    def record(marked: Boolean, seesaw: Boolean, t: Double): Unit =
      perCell.getOrElseUpdate((marked, seesaw), scala.collection.mutable.ArrayBuffer.empty) += t

    val timings = queries.map { case (cat, hard) =>
      // Deterministic traces per system; user variability enters via timing draws.
      val baseTrace = SearchSession.run(
        coarseStore, arts.user, cat, MethodConfig.ZeroShot, multiscale = false,
        budget = SessionBudget).trace
      val ssTrace = SearchSession.run(
        arts.store, arts.user, cat, MethodConfig.SeeSaw, multiscale = true,
        mD = arts.mD, budget = SessionBudget).trace

      def completion(trace: Seq[Boolean], seesaw: Boolean, userSeed: Long): Double = {
        var t = 0.0
        var found = 0
        val it = trace.iterator
        var i = 0
        while (it.hasNext && found < Metrics.DefaultTarget && t < TimeLimitSeconds) {
          val marked = it.next()
          val dt = model.sample(Rng.key(userSeed, cat.toLong, i.toLong, if (seesaw) 1L else 0L), marked, seesaw)
          t += dt
          record(marked, seesaw, dt)
          if (marked) found += 1
          i += 1
        }
        if (found >= Metrics.DefaultTarget) math.min(t, TimeLimitSeconds) else TimeLimitSeconds
      }

      val baseTimes = (0 until NUsers).map(u => completion(baseTrace, seesaw = false, userSeed = 1000L + u))
      val ssTimes = (0 until NUsers).map(u => completion(ssTrace, seesaw = true, userSeed = 2000L + u))
      QueryTiming(spec.name, cat, hard, median(baseTimes), median(ssTimes))
    }

    val cells = perCell.map { case (k, xs) => k -> UserTimeModel.meanCi(xs.toSeq) }.toMap
    Result(cells, timings)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2.0
  }
}
