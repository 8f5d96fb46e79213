package repro.bench.tables

import repro.bench.TableText

/** One labeled table row of per-dataset values. */
final case class PanelRow(label: String, values: Seq[Double]) {
  def withAvg: Seq[Double] = values :+ (values.sum / values.size)
}

/** The two-panel mAP table of Tables 2 and 3: one row per method and one
  * column per dataset plus their average, over all queries and over the hard
  * subset (zero-shot AP < .5).
  *
  * @param table     table name in the titles, e.g. "Table 2"
  * @param avgHeader heading of the average column, spelled as in the paper
  */
final case class PanelResult(
    table: String,
    avgHeader: String,
    datasets: Seq[String],
    hardCounts: Seq[Int],
    allRows: Seq[PanelRow],
    hardRows: Seq[PanelRow],
) {
  def render: String = PanelResult.renderPanels(
    s"$table (measured)",
    s" (counts: ${datasets.zip(hardCounts).map { case (d, c) => s"$d=$c" }.mkString(", ")})",
    datasets :+ avgHeader,
    allRows.map(r => r.label -> r.withAvg),
    hardRows.map(r => r.label -> r.withAvg),
  )
}

object PanelResult {

  /** Assemble the panels from per-dataset columns `(dataset, hard-subset
    * size, all-queries values, hard-subset values)`, values in `labels` order.
    */
  def fromColumns(
      table: String,
      avgHeader: String,
      labels: Seq[String],
      columns: Seq[(String, Int, Seq[Double], Seq[Double])],
  ): PanelResult = PanelResult(
    table, avgHeader,
    datasets = columns.map(_._1),
    hardCounts = columns.map(_._2),
    allRows = labels.zipWithIndex.map { case (l, i) => PanelRow(l, columns.map(_._3(i))) },
    hardRows = labels.zipWithIndex.map { case (l, i) => PanelRow(l, columns.map(_._4(i))) },
  )

  /** The paper's panels, whose rows already end with the average. */
  def paper(
      table: String,
      avgHeader: String,
      all: Seq[(String, Seq[Double])],
      hard: Seq[(String, Seq[Double])],
  ): String =
    renderPanels(s"$table (paper)", "", Seq("LVIS", "ObjNet", "COCO", "BDD", avgHeader), all, hard)

  private def renderPanels(
      title: String,
      hardNote: String,
      header: Seq[String],
      all: Seq[(String, Seq[Double])],
      hard: Seq[(String, Seq[Double])],
  ): String = {
    def panel(name: String, rows: Seq[(String, Seq[Double])]): String =
      TableText.renderCells(s"$title — $name", header, rows.map { case (l, vs) => l -> vs.map(TableText.fmt) })
    panel("all queries", all) + panel(s"hard subset$hardNote", hard)
  }
}
