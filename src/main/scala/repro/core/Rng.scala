package repro.core

/** Deterministic, stateless, splittable randomness.
  *
  * Every synthetic quantity in the reproduction (prototype vectors, object
  * placements, instance noise, simulated user timings) is a pure function of
  * a key built by mixing longs with SplitMix64. Being stateless means Spark
  * tasks, the DuckDB oracle, and re-runs all observe identical data without
  * sharing any RNG object.
  */
object Rng {

  /** SplitMix64 finalizer — a high-quality 64-bit mixing function. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Combine a seed with stream coordinates into a single key. */
  def key(seed: Long, parts: Long*): Long = {
    var k = mix(seed)
    parts.foreach(p => k = mix(k ^ p))
    k
  }

  /** [[key]] of one part, without the varargs `Seq`: the same value as
    * `key(seed, Seq(p): _*)`.
    */
  def key(seed: Long, p: Long): Long = mix(mix(seed) ^ p)

  /** Uniform double in [0, 1). */
  def uniform(k: Long): Double = (mix(k) >>> 11) * (1.0 / (1L << 53))

  /** Uniform double in [lo, hi). */
  def uniform(k: Long, lo: Double, hi: Double): Double = lo + uniform(k) * (hi - lo)

  /** Uniform int in [0, n). */
  def int(k: Long, n: Int): Int = {
    require(n > 0, s"n must be positive, got $n")
    ((mix(k) >>> 1) % n).toInt
  }

  /** Standard normal via Box–Muller on two derived uniforms. */
  def gaussian(k: Long): Double = {
    val u1 = math.max(uniform(key(k, 0x5eedL)), 1e-300)
    val u2 = uniform(key(k, 0xfaceL))
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }

  /** Vector of iid standard normals, deterministic in (k, dim). */
  def gaussianVector(k: Long, dim: Int): Array[Float] = {
    val out = new Array[Float](dim)
    var i = 0
    while (i < dim) { out(i) = gaussian(key(k, i.toLong)).toFloat; i += 1 }
    out
  }

  /** Sample an index from unnormalized non-negative weights. */
  def categorical(k: Long, weights: Array[Double]): Int = {
    val total = weights.sum
    require(total > 0, "weights must have positive sum")
    var u = uniform(k) * total
    var i = 0
    while (i < weights.length - 1 && u >= weights(i)) { u -= weights(i); i += 1 }
    i
  }

  /** Zipf(alpha) draw over ranks 1..n, returned 0-indexed. */
  def zipf(k: Long, n: Int, alpha: Double): Int = {
    val weights = Array.tabulate(n)(i => 1.0 / math.pow(i + 1.0, alpha))
    categorical(k, weights)
  }
}
