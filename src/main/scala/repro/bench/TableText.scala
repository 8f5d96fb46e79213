package repro.bench

/** Fixed-width text rendering for benchmark tables — every bench suite and
  * job prints paper-style rows so EXPERIMENTS.md can diff paper vs measured.
  */
object TableText {

  def fmt(v: Double): String = f"$v%.2f"

  /** Render a table: header row + labeled rows of cells, right-aligned in
    * columns at least 6 characters wide. Numeric cells are formatted by
    * [[fmt]]; text cells (NA entries, CIs, counts) pass through as is.
    */
  def renderCells(title: String, header: Seq[String], rows: Seq[(String, Seq[String])]): String = {
    val labelWidth = math.max(rows.map(_._1.length).maxOption.getOrElse(5), 6) + 2
    val colWidth = math.max(
      (header ++ rows.flatMap(_._2)).map(_.length).maxOption.getOrElse(6), 6) + 2
    val sb = new StringBuilder
    sb ++= s"== $title ==\n"
    sb ++= " " * labelWidth
    header.foreach(h => sb ++= h.reverse.padTo(colWidth, ' ').reverse)
    sb += '\n'
    rows.foreach { case (label, vals) =>
      sb ++= label.padTo(labelWidth, ' ')
      vals.foreach(v => sb ++= v.reverse.padTo(colWidth, ' ').reverse)
      sb += '\n'
    }
    sb.result()
  }
}
