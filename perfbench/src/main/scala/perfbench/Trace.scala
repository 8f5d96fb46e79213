package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._

/** One timed call at a layer boundary. `parent` is 0 for a root span; spans
  * of one search session share `session` (0 outside sessions).
  */
final case class Span(id: Long, parent: Long, session: Long, name: String, start: Long, end: Long) {
  def nanos: Long = end - start
  /** The layer is the module name the span is prefixed with (`store.local.x` → `store`). */
  def layer: String = name.takeWhile(_ != '.')
}

/** In-memory span recorder for the traced run. Spans nest per thread; the
  * recorder is only ever called by the benchmark's own replay code, around
  * the program's public functions, so the untraced run pays nothing.
  */
final class Tracer {
  private val spans = new ConcurrentLinkedQueue[Span]()
  private val ids = new AtomicLong(0)
  private val open = ThreadLocal.withInitial[Array[Long]](() => Array(0L, 0L)) // (parent id, session)

  def span[T](name: String)(body: => T): T = {
    val state = open.get
    val parent = state(0)
    val id = ids.incrementAndGet()
    state(0) = id
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      state(0) = parent
      spans.add(Span(id, parent, state(1), name, t0, t1))
    }
  }

  /** A root span for one search session; every span opened inside it carries `session`. */
  def session[T](session: Long)(body: => T): T = {
    val state = open.get
    val outer = state(1)
    state(1) = session
    try span("bench.session")(body)
    finally state(1) = outer
  }

  private val counts = new java.util.concurrent.ConcurrentHashMap[String, Array[Double]]()

  /** Add one observation to a named count kept beside the spans (sum, n). */
  def count(name: String, value: Double): Unit =
    counts.compute(name, (_, acc) => if (acc == null) Array(value, 1.0) else Array(acc(0) + value, acc(1) + 1))

  def countMean(name: String): Double =
    Option(counts.get(name)).map(a => a(0) / a(1)).getOrElse(0.0)

  def countSum(name: String): Double = Option(counts.get(name)).map(_(0)).getOrElse(0.0)

  def all: Seq[Span] = spans.asScala.toSeq

  /** Self time per span: its duration minus the part its children cover.
    * Children of one span never overlap (each thread nests its spans).
    */
  def selfNanos(of: Seq[Span]): Map[Span, Long] = {
    val childTime = of.groupMapReduce(_.parent)(_.nanos)(_ + _)
    of.map(s => s -> (s.nanos - childTime.getOrElse(s.id, 0L))).toMap
  }

  /** Write every span as one JSON object per line. */
  def writeJsonLines(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try all.sortBy(_.id).foreach { s =>
      w.write(s"""{"id":${s.id},"parent":${s.parent},"session":${s.session},"name":"${s.name}",""" +
        s""""start_ns":${s.start},"end_ns":${s.end}}""")
      w.newLine()
    } finally w.close()
  }
}
