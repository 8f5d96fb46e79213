package repro.bench

import repro.SparkSpec
import repro.bench.tables.Table2

/** Regenerates Table 2 (the SeeSaw optimization ladder) and checks the
  * paper's qualitative shape. Output is written to bench_results/table2.txt
  * and echoed so EXPERIMENTS.md can be diffed against the paper's values.
  */
class Table2Bench extends SparkSpec {

  private lazy val result = Table2.compute(spark)

  private def row(panel: Seq[tables.PanelRow], label: String): Seq[Double] =
    panel.find(_.label == label).get.withAvg

  private def avg(panel: Seq[tables.PanelRow], label: String): Double =
    row(panel, label).last

  test("render and persist Table 2") {
    val text = Table2.Paper + "\n" + result.render
    println(text)
    BenchOutput.write("table2.txt", text)
    assert(result.datasets == Seq("LVIS", "ObjNet", "COCO", "BDD"))
    assert(result.allRows.size == 5 && result.hardRows.size == 5)
  }

  test("each dataset has a non-trivial hard subset (Figure 1 long tail)") {
    result.datasets.zip(result.hardCounts).foreach { case (d, c) =>
      assert(c >= 1, s"$d has no hard queries")
    }
  }

  test("multiscale improves the average over coarse zero-shot") {
    assert(avg(result.allRows, "+multiscale") > avg(result.allRows, "zero-shot CLIP"),
      s"${avg(result.allRows, "+multiscale")} vs ${avg(result.allRows, "zero-shot CLIP")}")
  }

  test("multiscale does not help ObjectNet (fixed 224x224 images)") {
    val objNetIdx = result.datasets.indexOf("ObjNet")
    val zs = row(result.allRows, "zero-shot CLIP")(objNetIdx)
    val ms = row(result.allRows, "+multiscale")(objNetIdx)
    assert(math.abs(ms - zs) < 0.03, s"ObjNet zs=$zs ms=$ms should coincide")
  }

  test("multiscale helps BDD the most in relative terms on the hard subset") {
    val bddIdx = result.datasets.indexOf("BDD")
    val zs = row(result.hardRows, "zero-shot CLIP")(bddIdx)
    val ms = row(result.hardRows, "+multiscale")(bddIdx)
    assert(ms > zs, s"BDD hard: multiscale $ms should beat zero-shot $zs")
  }

  test("few-shot drops mean AP relative to multiscale zero-shot (all queries)") {
    assert(avg(result.allRows, "+few-shot CLIP") < avg(result.allRows, "+multiscale") + 0.01,
      s"few-shot ${avg(result.allRows, "+few-shot CLIP")} vs multiscale ${avg(result.allRows, "+multiscale")}")
  }

  test("query (CLIP) alignment recovers the few-shot regression") {
    assert(avg(result.allRows, "+Query align") > avg(result.allRows, "+few-shot CLIP"))
  }

  test("query alignment beats multiscale zero-shot overall") {
    assert(avg(result.allRows, "+Query align") >= avg(result.allRows, "+multiscale") - 0.005)
  }

  test("DB alignment adds a further (small) improvement on average") {
    assert(avg(result.allRows, "+DB align") >= avg(result.allRows, "+Query align") - 0.01)
  }

  test("full SeeSaw strongly improves the hard subset (paper: .19 → .46)") {
    val zs = avg(result.hardRows, "zero-shot CLIP")
    val ss = avg(result.hardRows, "+DB align")
    assert(ss > zs + 0.10, s"hard subset: seesaw $ss vs zero-shot $zs")
  }

  test("full SeeSaw improves the overall average (paper: .72 → .80)") {
    val zs = avg(result.allRows, "zero-shot CLIP")
    val ss = avg(result.allRows, "+DB align")
    assert(ss > zs + 0.02, s"all queries: seesaw $ss vs zero-shot $zs")
  }
}
