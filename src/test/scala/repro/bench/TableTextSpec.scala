package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.tables.PanelResult

class TableTextSpec extends AnyFunSuite {

  test("labels pad to a common width and cells right-align in columns at least 6 wide") {
    val text = TableText.renderCells("T", Seq("a", "bb"), Seq("x" -> Seq("1", "22"), "long label" -> Seq("333", "4")))
    assert(text ==
      """== T ==
        |                   a      bb
        |x                  1      22
        |long label       333       4
        |""".stripMargin)
  }

  test("a cell wider than 6 widens every column, and NA cells pass through") {
    val text = TableText.renderCells("T", Seq("ENS", "CI"), Seq("row" -> Seq("NA", "1.00 ± 0.25")))
    assert(text ==
      """== T ==
        |                  ENS           CI
        |row                NA  1.00 ± 0.25
        |""".stripMargin)
  }

  test("a two-row panel renders both subsets with the average column") {
    val panels = PanelResult.fromColumns("Table 9", "avg.", Seq("zero-shot", "SeeSaw"), Seq(
      ("A", 1, Seq(0.25, 0.5), Seq(0.0, 0.25)),
      ("B", 2, Seq(0.75, 1.0), Seq(0.5, 0.75)),
    ))
    assert(panels.render ==
      """== Table 9 (measured) — all queries ==
        |                  A       B    avg.
        |zero-shot      0.25    0.75    0.50
        |SeeSaw         0.50    1.00    0.75
        |== Table 9 (measured) — hard subset (counts: A=1, B=2) ==
        |                  A       B    avg.
        |zero-shot      0.00    0.50    0.25
        |SeeSaw         0.25    0.75    0.50
        |""".stripMargin)
  }
}
