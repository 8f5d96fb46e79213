package repro.bench

import repro.SparkSpec
import repro.bench.tables.Table7

/** Regenerates Table 7 (hyperparameter sweep): the claim under test is
  * *flatness* — order-of-magnitude changes in λ_c, λ_D, λ stay near the
  * optimum, and the paper's chosen row (10, 1000, 100) is near-optimal.
  */
class Table7Bench extends SparkSpec {

  private lazy val result = Table7.compute(spark)

  private def avgOf(row: (Double, Double, Double)): Double = {
    val label = s"λc=${row._1.toInt} λD=${row._2.toInt} λ=${row._3.toInt}"
    result.rows.find(_._1 == label).get._2.last
  }

  test("render and persist Table 7") {
    val text = Table7.Paper + "\n" + result.render
    println(text)
    BenchOutput.write("table7.txt", text)
    assert(result.rows.size == Table7.Grid.size)
  }

  test("all settings produce valid mAPs") {
    result.rows.foreach { case (label, vals) =>
      vals.foreach(v => assert(v >= 0 && v <= 1, s"$label: $vals"))
    }
  }

  test("the sweep is flat: every setting is within 0.1 of the best average") {
    val avgs = Table7.Grid.map(avgOf)
    val best = avgs.max
    avgs.zip(Table7.Grid).foreach { case (a, g) =>
      assert(a > best - 0.1, s"setting $g average $a vs best $best")
    }
  }

  test("the paper's chosen setting (λc=10, λD=1000, λ=100) is near-optimal") {
    val chosen = avgOf((10, 1000, 100))
    val best = Table7.Grid.map(avgOf).max
    assert(chosen > best - 0.05, s"chosen $chosen vs best $best")
  }

  test("λ variation at the chosen (λc, λD) barely matters (paper rows 5-7)") {
    val vals = Seq[Double](30, 100, 300).map(l => avgOf((10, 1000, l)))
    assert(vals.max - vals.min < 0.05, s"λ sweep spread: $vals")
  }
}
