package repro.bench

import repro.SparkSpec
import repro.bench.tables.Table5

/** Regenerates Table 5 (annotation timing, simulated users) and the §5.5
  * end-to-end comparison.
  */
class Table5Bench extends SparkSpec {

  private lazy val result = Table5.compute(spark)

  test("render and persist Table 5") {
    val text = Table5.Paper + "\n" + result.render
    println(text)
    BenchOutput.write("table5.txt", text)
  }

  test("cell means recover the paper's ordering: marked > not marked") {
    val (bNot, _) = result.cells((false, false))
    val (bMark, _) = result.cells((true, false))
    val (sNot, _) = result.cells((false, true))
    val (sMark, _) = result.cells((true, true))
    assert(bMark > bNot, s"baseline marked $bMark vs not $bNot")
    assert(sMark > sNot, s"seesaw marked $sMark vs not $sNot")
  }

  test("seesaw box-annotation adds ~50% overhead to marking (paper: 4.4 vs 3.0)") {
    val (bMark, _) = result.cells((true, false))
    val (sMark, _) = result.cells((true, true))
    assert(sMark > bMark * 1.2, s"seesaw marked $sMark vs baseline marked $bMark")
  }

  test("cell means are near the paper's values (the simulator encodes them)") {
    val expected = Map(
      (false, false) -> 1.98, (true, false) -> 3.00,
      (false, true) -> 2.40, (true, true) -> 4.40)
    expected.foreach { case (cell, want) =>
      val (got, _) = result.cells(cell)
      assert(math.abs(got - want) < 0.25, s"cell $cell: $got vs paper $want")
    }
  }

  test("SeeSaw completes hard queries faster than the baseline (§5.5)") {
    val hard = result.queryTimings.filter(_.hard)
    assert(hard.nonEmpty)
    val baseMedian = hard.map(_.baselineMedian).sum / hard.size
    val ssMedian = hard.map(_.seesawMedian).sum / hard.size
    assert(ssMedian < baseMedian, s"seesaw $ssMedian vs baseline $baseMedian on hard queries")
  }

  test("on easy queries the baseline is competitive (annotation overhead)") {
    val easy = result.queryTimings.filterNot(_.hard)
    assert(easy.nonEmpty)
    // SeeSaw may be slower on easy queries (paper Fig. 6); just require both
    // systems complete well within the time limit on average.
    easy.foreach { q =>
      assert(q.baselineMedian < Table5.TimeLimitSeconds, s"$q")
    }
  }

  test("confidence intervals are positive and not absurdly wide") {
    result.cells.values.foreach { case (m, ci) =>
      assert(ci > 0 && ci < m, s"mean $m ci $ci")
    }
  }
}
