package perfbench

import scala.collection.mutable.ArrayBuffer

object Stats {
  /** Nearest-rank quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.length).toInt - 1))
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def ms(nanos: Long): Double = nanos / 1e6

  def seconds(nanos: Long): Double = nanos / 1e9
}

/** The metrics of one run: printed one per line for people, then as the
  * single JSON object that ends standard output.
  */
final class Report(workload: String) {
  private val metrics = ArrayBuffer.empty[Report.Metric]
  private val notes = ArrayBuffer.empty[String]

  def add(name: String, value: Double, unit: String, note: String = ""): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is not a finite number: $value")
    metrics += Report.Metric(name, value, unit, note)
  }

  def note(line: String): Unit = notes += line

  def print(correct: Boolean, attempted: Long, failed: Long): Unit = {
    notes.foreach(n => println(s"[$workload] $n"))
    metrics.foreach { m =>
      val extra = if (m.note.isEmpty) "" else s"  (${m.note})"
      println(f"[$workload] ${m.name}%-34s ${m.value}%14.6f ${m.unit}$extra")
    }
    val errorRate = if (attempted == 0) 1.0 else failed.toDouble / attempted
    println(f"[$workload] error_rate = $errorRate%.4f ($failed failed of $attempted sessions)")
    val body = metrics
      .map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
      .mkString(", ")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
  }
}

object Report {
  private final case class Metric(name: String, value: Double, unit: String, note: String)
}
