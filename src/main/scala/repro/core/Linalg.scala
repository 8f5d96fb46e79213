package repro.core

/** Dense float vector / double matrix primitives used throughout the repro.
  *
  * Embeddings are `Array[Float]` (they live in Spark columns and broadcast
  * stores); optimizer state and the D×D DB-alignment matrix are
  * `Array[Double]` for numerical headroom. All ops are allocation-conscious
  * loops — these run inside per-query simulation UDFs.
  */
object Linalg {

  def dot(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i).toDouble * b(i); i += 1 }
    s
  }

  def dotDD(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def norm(a: Array[Float]): Double = math.sqrt(dot(a, a))
  def normD(a: Array[Double]): Double = math.sqrt(dotDD(a, a))

  /** Unit-normalized copy; the zero vector normalizes to itself. */
  def normalize(a: Array[Float]): Array[Float] = {
    val n = norm(a)
    if (n < 1e-12) a.clone() else a.map(v => (v / n).toFloat)
  }

  def normalizeD(a: Array[Double]): Array[Double] = {
    val n = normD(a)
    if (n < 1e-12) a.clone() else a.map(_ / n)
  }

  /** y += alpha * x (in place). */
  def axpy(alpha: Double, x: Array[Float], y: Array[Float]): Unit = {
    var i = 0
    while (i < x.length) { y(i) = (y(i) + alpha * x(i)).toFloat; i += 1 }
  }

  def axpyD(alpha: Double, x: Array[Double], y: Array[Double]): Unit = {
    var i = 0
    while (i < x.length) { y(i) += alpha * x(i); i += 1 }
  }

  def scale(alpha: Double, x: Array[Double]): Array[Double] = x.map(_ * alpha)

  def sub(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i) - b(i); i += 1 }
    out
  }

  // Plain loops: `Array.map` writes through a generic array update that
  // boxes every element, which costs more than the conversion.
  def toDouble(a: Array[Float]): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i); i += 1 }
    out
  }

  def toFloat(a: Array[Double]): Array[Float] = {
    val out = new Array[Float](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i).toFloat; i += 1 }
    out
  }

  /** Squared Euclidean distance between float vectors. */
  def sqDist(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i).toDouble - b(i); s += d * d; i += 1 }
    s
  }

  /** Row-major symmetric matrix–vector product: out = M x, M is d×d.
    * Eight rows per pass, each row summed on its own chain in column order,
    * so every entry is the plain row-by-row sum bit for bit.
    */
  def symMatVec(m: Array[Double], d: Int, x: Array[Double]): Array[Double] = {
    require(m.length == d * d, s"matrix size ${m.length} != $d^2")
    require(x.length == d, s"vector size ${x.length} != $d")
    val out = new Array[Double](d)
    var r = 0
    while (r + 8 <= d) {
      val o0 = r * d; val o1 = o0 + d; val o2 = o1 + d; val o3 = o2 + d
      val o4 = o3 + d; val o5 = o4 + d; val o6 = o5 + d; val o7 = o6 + d
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var s4 = 0.0; var s5 = 0.0; var s6 = 0.0; var s7 = 0.0
      var c = 0
      while (c < d) {
        val xc = x(c)
        s0 += m(o0 + c) * xc; s1 += m(o1 + c) * xc; s2 += m(o2 + c) * xc; s3 += m(o3 + c) * xc
        s4 += m(o4 + c) * xc; s5 += m(o5 + c) * xc; s6 += m(o6 + c) * xc; s7 += m(o7 + c) * xc
        c += 1
      }
      out(r) = s0; out(r + 1) = s1; out(r + 2) = s2; out(r + 3) = s3
      out(r + 4) = s4; out(r + 5) = s5; out(r + 6) = s6; out(r + 7) = s7
      r += 8
    }
    while (r < d) {
      var s = 0.0; var c = 0; val off = r * d
      while (c < d) { s += m(off + c) * x(c); c += 1 }
      out(r) = s
      r += 1
    }
    out
  }

  /** Rank-one update: M += alpha * v v^T (row-major, in place). */
  def addOuter(m: Array[Double], d: Int, alpha: Double, v: Array[Double]): Unit = {
    var r = 0
    while (r < d) {
      val vr = alpha * v(r); val off = r * d
      var c = 0
      while (c < d) { m(off + c) += vr * v(c); c += 1 }
      r += 1
    }
  }

  /** Mean of a non-empty collection of float vectors. */
  def mean(vs: Seq[Array[Float]]): Array[Float] = {
    require(vs.nonEmpty, "mean of empty set")
    val d = vs.head.length
    val acc = new Array[Double](d)
    vs.foreach { v => var i = 0; while (i < d) { acc(i) += v(i); i += 1 } }
    acc.map(s => (s / vs.size).toFloat)
  }
}
