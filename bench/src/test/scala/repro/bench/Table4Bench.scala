package repro.bench

import repro.SparkSpec
import repro.bench.tables.Table4

/** Regenerates Table 4 (ENS horizon/calibration sensitivity). */
class Table4Bench extends SparkSpec {

  private lazy val result = Table4.compute(spark)

  test("render and persist Table 4") {
    val text = Table4.Paper + "\n" + result.render
    println(text)
    BenchOutput.write("table4.txt", text)
    assert(result.raw.size == 4 && result.calibrated.size == 4)
  }

  test("calibration helps ENS where the lookahead matters (long horizons)") {
    // Short horizons barely use the γ_i probabilities, so raw and calibrated
    // coincide there (within noise); at the paper's operating horizon the
    // calibrated prior must win clearly.
    result.raw.zip(result.calibrated).zip(Table4.Horizons).foreach { case ((r, c), h) =>
      assert(c >= r - 0.03, s"t=$h: calibrated $c far below raw $r")
    }
    assert(result.calibrated.last > result.raw.last + 0.02,
      s"t=60: calibrated ${result.calibrated.last} vs raw ${result.raw.last}")
  }

  test("raw-γ mAP degrades from short to long horizons (paper: sharp drop)") {
    assert(result.raw.last < result.raw.head,
      s"raw t=60 ${result.raw.last} should be below raw t=1 ${result.raw.head}")
  }

  test("calibrated γ degrades less than raw γ as the horizon grows") {
    val rawDrop = result.raw.head - result.raw.last
    val calDrop = result.calibrated.head - result.calibrated.last
    assert(calDrop <= rawDrop + 0.01, s"calibrated drop $calDrop vs raw drop $rawDrop")
  }

  test("all values are valid mAPs") {
    (result.raw ++ result.calibrated).foreach(v => assert(v >= 0 && v <= 1))
  }
}
