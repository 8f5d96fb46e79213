package repro.store

import org.apache.commons.math3.linear.{Array2DRowRealMatrix, EigenDecomposition}
import repro.core.Linalg

/** Upper bounds on the inner products of a query with a store's rows, read
  * from a small table instead of the rows themselves (cone trees, Ram & Gray
  * 2012; LEMP, Teflioudi et al. 2015).
  *
  * At build, the table takes an orthonormal basis P (r × d) of the top r
  * eigenvectors of the second-moment matrix of a stride sample of the rows.
  * For each row x it keeps the projection y = Px as 8-bit codes c_j with one
  * scale s_j per component (y_j ≈ c_j·s_j, |c_j| ≤ 127), and the residual
  * norm ‖x − Pᵀy‖, computed directly and rounded up to an 8-bit multiple
  * ρ(x) of one step per store. Per query q it computes q' = Pq, the
  * residual norm ‖q_⊥‖ = ‖q − Pᵀq'‖, and integer weights W_j ≈ s_j·q'_j/T
  * with |W_j| ≤ 32767, so a row's bound is one integer dot product of r
  * terms, exact in an `Int` (|c_j·W_j| < 2^22).
  *
  * Why the bound holds. With Π = PᵀP, x_⊥ = x − Πx and q_⊥ = q − Πq, the
  * identity x·q = (Px)·(Pq) + x_⊥·q_⊥ + (Px)ᵀ(I − PPᵀ)(Pq) holds for any P.
  * The last term is at most ‖I − PPᵀ‖·‖x‖·‖q‖·(1 + ‖I − PPᵀ‖)², which the
  * build keeps below 1e-12·‖x‖·‖q‖, and |x_⊥·q_⊥| ≤ ‖x_⊥‖·‖q_⊥‖. Writing
  * (Px)_j = c_j·s_j + e_j with |e_j| ≤ s_j/2 (round to nearest code) and
  * s_j·q'_j = T·W_j + f_j with |f_j| ≤ T/2,
  *
  *   (Px)·(Pq) ≤ T·Σ_j c_j·W_j + Σ_j (s_j/2)·|q'_j| + 127·r·T/2.
  *
  * So x·q ≤ bound(x) + margin, where bound(x) = T·Σ_j c_j·W_j + ρ(x)·‖q_⊥‖
  * (ρ(x) ≥ ‖x_⊥‖) and margin = Σ_j (s_j/2)·|q'_j| + 127·r·T/2 + Slack·X·‖q‖,
  * X the largest row norm. The last term covers every floating-point
  * rounding: the score itself (a double sum of d exact float products, off
  * the true x·q by at most d·2^-53·‖x‖·‖q‖), the double projections,
  * residuals, weights and bound arithmetic (each off by at most about
  * (d + r)·2^-53 relative), and the basis's departure from orthonormality.
  * At d = 128, r = 48 these total below 1e-12·X·‖q‖, so `Slack` = 1e-9 has
  * a thousandfold headroom, and the computed score of a row is at most
  * bound(x) + margin.
  *
  * A scan may therefore skip a row whose bound is strictly below τ − margin
  * for any τ at or below the k-th best score: the row cannot reach τ. The
  * table only decides which rows to score; the scores come from the
  * unchanged exact kernel.
  *
  * Layout. The codes are stored component-major, four rows to an `Int`:
  * for each block of `BlockRows` rows and each component j one array whose
  * entry g holds c_j of the block's rows 4g, 4g+1, 4g+2 and 4g+3 in its
  * bytes, low byte first (a partial last block pads its last entry with
  * zero codes). That is r bytes a row, as a row-major layout, but `bounds`
  * can then sum Σ_j c_j·W_j for four rows at once in loops that read the
  * codes and update the sums at the same index, which C2 vectorizes; it
  * does not vectorize a byte-to-int loop, nor an int loop whose source
  * index carries an offset.
  */
private[repro] final class PrefixTable private (
    val dim: Int,
    val r: Int,
    val basis: Array[Double], // r × dim, row-major, orthonormal rows
    val scales: Array[Double], // s_j
    private[repro] val codes: Array[Array[Array[Int]]], // per block, per component: four rows' codes per entry
    private[repro] val resid: Array[Byte], // ‖x − Pᵀy‖ per row, rounded up to a multiple of residStep, unsigned
    val residStep: Double,
    val maxNorm: Double, // X
) extends Serializable {
  import PrefixTable.{BlockRows, BlockShift, MaxWeight, Query, Slack}

  /** The per-query constants of every row's bound. The projections q'_j
    * run four per pass, each summed in `t` order; then the residual takes
    * their shares four per pass, each entry in `j` order. So every value
    * is the one-at-a-time computation's bit for bit.
    */
  def query(q: Array[Float]): Query = {
    val qp = new Array[Double](r)
    var j = 0
    while (j + 4 <= r) {
      val o0 = j * dim; val o1 = o0 + dim; val o2 = o1 + dim; val o3 = o2 + dim
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var t = 0
      while (t < dim) {
        val qt = q(t).toDouble
        s0 += basis(o0 + t) * qt; s1 += basis(o1 + t) * qt; s2 += basis(o2 + t) * qt; s3 += basis(o3 + t) * qt
        t += 1
      }
      qp(j) = s0; qp(j + 1) = s1; qp(j + 2) = s2; qp(j + 3) = s3
      j += 4
    }
    while (j < r) {
      val o = j * dim
      var s = 0.0; var t = 0
      while (t < dim) { s += basis(o + t) * q(t); t += 1 }
      qp(j) = s
      j += 1
    }
    val perp = Linalg.toDouble(q)
    j = 0
    while (j + 4 <= r) {
      val o0 = j * dim; val o1 = o0 + dim; val o2 = o1 + dim; val o3 = o2 + dim
      val s0 = qp(j); val s1 = qp(j + 1); val s2 = qp(j + 2); val s3 = qp(j + 3)
      var t = 0
      while (t < dim) {
        perp(t) = perp(t) - s0 * basis(o0 + t) - s1 * basis(o1 + t) - s2 * basis(o2 + t) - s3 * basis(o3 + t)
        t += 1
      }
      j += 4
    }
    while (j < r) {
      val s = qp(j); val o = j * dim
      var t = 0
      while (t < dim) { perp(t) -= s * basis(o + t); t += 1 }
      j += 1
    }
    var maxW = 0.0
    j = 0
    while (j < r) { maxW = math.max(maxW, math.abs(scales(j) * qp(j))); j += 1 }
    val step = maxW / MaxWeight
    val weights = new Array[Int](r)
    var quant = 127.0 * r * step / 2
    j = 0
    while (j < r) {
      if (step > 0) weights(j) = math.round(scales(j) * qp(j) / step).toInt
      quant += scales(j) / 2 * math.abs(qp(j))
      j += 1
    }
    new Query(weights, step, residStep * Linalg.normD(perp), quant + Slack * maxNorm * Linalg.norm(q))
  }

  /** bound(x) of the rows [from, until): the score of row from + t is at
    * most entry t plus `qb.margin`.
    *
    * Per block, four lane sums run over the entries [gs, ge) that hold the
    * range's rows, lane l summing the l-th byte of each entry, so each
    * lane's loop reads a component's codes and updates its sums at the same
    * index. For a range inside one block they end at the range's last
    * entry, so a small store's lookup allocates sums for its own rows, not
    * a block's. The integer sums are exact in any order, so every bound is
    * the row-at-a-time T·Σ_j c_j·W_j + ρ·‖q_⊥‖'s.
    */
  def bounds(qb: Query, from: Int, until: Int): Array[Double] = {
    val out = new Array[Double](until - from)
    if (until > from) {
      val w = qb.weights
      val step = qb.step
      val rw = qb.residWeight
      val lastBlock = (until - 1) >>> BlockShift
      var b = from >>> BlockShift
      val len = if (b == lastBlock) (((until - 1) & (BlockRows - 1)) >>> 2) + 1 else BlockRows >>> 2
      val a0 = new Array[Int](len); val a1 = new Array[Int](len)
      val a2 = new Array[Int](len); val a3 = new Array[Int](len)
      while (b <= lastBlock) {
        val base = b << BlockShift
        val lo = math.max(from, base) - base
        val hi = math.min(until, base + BlockRows) - base
        val gs = lo >>> 2
        val ge = (hi + 3) >>> 2
        java.util.Arrays.fill(a0, gs, ge, 0); java.util.Arrays.fill(a1, gs, ge, 0)
        java.util.Arrays.fill(a2, gs, ge, 0); java.util.Arrays.fill(a3, gs, ge, 0)
        val block = codes(b)
        var j = 0
        while (j < r) {
          val p = block(j)
          val wj = w(j)
          var g = gs
          while (g < ge) { a0(g) += ((p(g) << 24) >> 24) * wj; g += 1 }
          g = gs
          while (g < ge) { a1(g) += ((p(g) << 16) >> 24) * wj; g += 1 }
          g = gs
          while (g < ge) { a2(g) += ((p(g) << 8) >> 24) * wj; g += 1 }
          g = gs
          while (g < ge) { a3(g) += (p(g) >> 24) * wj; g += 1 }
          j += 1
        }
        var t = lo
        // The rows before the first whole entry, then four rows per entry, then the rest.
        while (t < hi && (t & 3) != 0) { out(base + t - from) = lane(a0, a1, a2, a3, t) * step + (resid(base + t) & 0xff) * rw; t += 1 }
        while (t + 4 <= hi) {
          val g = t >>> 2
          val o = base + t - from
          val ri = base + t
          out(o) = a0(g) * step + (resid(ri) & 0xff) * rw
          out(o + 1) = a1(g) * step + (resid(ri + 1) & 0xff) * rw
          out(o + 2) = a2(g) * step + (resid(ri + 2) & 0xff) * rw
          out(o + 3) = a3(g) * step + (resid(ri + 3) & 0xff) * rw
          t += 4
        }
        while (t < hi) { out(base + t - from) = lane(a0, a1, a2, a3, t) * step + (resid(base + t) & 0xff) * rw; t += 1 }
        b += 1
      }
    }
    out
  }

  private def lane(a0: Array[Int], a1: Array[Int], a2: Array[Int], a3: Array[Int], t: Int): Int =
    (t & 3) match { case 0 => a0(t >>> 2) case 1 => a1(t >>> 2) case 2 => a2(t >>> 2) case _ => a3(t >>> 2) }
}

private[repro] object PrefixTable {
  /** Basis size r, at one byte a row each. On the LVIS-like corpus at sf
    * 0.2 (62.4K rows) and 120 perturbed text queries, the rows whose bound
    * reaches the top-1 score were 0.38% at the median and 2.7% at p90 with
    * r = 48. With a 4,096-row sample they were 0.37% and 2.6% at r = 48,
    * 0.69% and 5.3% at r = 44, and 1.5% and 9.1% at r = 40. At r = 48 the
    * table is 2.98 MiB there.
    */
  val Dims = 48

  /** Rows in the stride sample that fixes the basis; 4,096 rows pruned no
    * better (see `Dims`) at four times the cost of the second moments.
    */
  val SampleRows = 1024

  /** Relative allowance for floating-point rounding (see the class doc). */
  val Slack = 1e-9

  /** Largest integer weight, so that 127·|W_j| < 2^22 and a sum of r ≤ 64
    * products stays exact in an `Int`.
    */
  private val MaxWeight = 32767.0

  /** Rows per block of codes. A block's array per component is 4 KB, far
    * below the size at which G1 gives an array whole regions of its own
    * (half a region, at least 512 KB), so the table costs its own size in
    * heap, plus 16 bytes of header per array.
    */
  private val BlockShift = 12
  private[repro] val BlockRows = 1 << BlockShift

  /** Rows projected per parallel task at build, few enough that a store of
    * a few thousand rows still spreads over the cores.
    */
  private val TaskRows = 256

  /** Sample rows per parallel partial sum of the second-moment matrix. */
  private val SampleBlock = 512

  /** Per-query constants: integer weights W_j, their step T, ‖q_⊥‖ times
    * the residual step, and the margin to subtract from a threshold before
    * comparing bounds with it.
    */
  final class Query(val weights: Array[Int], val step: Double, val residWeight: Double, val margin: Double)

  def build(vecs: Array[Array[Float]]): PrefixTable = {
    val n = vecs.length
    val dim = vecs(0).length
    val r = math.min(Dims, dim)
    require(dim > 0, "patch vectors are empty")
    val basis = principalBasis(vecs, r)

    // Projections, residual norms and per-task maxima, in parallel over
    // tasks of `TaskRows` rows; each row is computed on its own.
    val y = new Array[Double](n * r)
    val res = new Array[Double](n)
    val nTasks = (n + TaskRows - 1) / TaskRows
    // Per task: r component maxima, the largest row norm, the largest residual.
    val taskMax = Array.ofDim[Double](nTasks, r + 2)
    java.util.stream.IntStream.range(0, nTasks).parallel().forEach { b =>
      val e = new Array[Double](dim)
      val mx = taskMax(b)
      var i = b * TaskRows
      while (i < math.min(n, (b + 1) * TaskRows)) {
        val x = vecs(i)
        var t = 0
        while (t < dim) { e(t) = x(t); t += 1 }
        val yi = i * r
        var j = 0
        while (j < r) {
          // Four components per pass where they remain: their projections
          // with independent sums, then their share of the residual.
          val o = j * dim
          t = 0
          if (j + 4 <= r) {
            var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
            while (t < dim) {
              val xt = x(t).toDouble
              s0 += basis(o + t) * xt
              s1 += basis(o + dim + t) * xt
              s2 += basis(o + 2 * dim + t) * xt
              s3 += basis(o + 3 * dim + t) * xt
              t += 1
            }
            t = 0
            while (t < dim) {
              e(t) -= s0 * basis(o + t) + s1 * basis(o + dim + t) + s2 * basis(o + 2 * dim + t) + s3 * basis(o + 3 * dim + t)
              t += 1
            }
            y(yi + j) = s0; y(yi + j + 1) = s1; y(yi + j + 2) = s2; y(yi + j + 3) = s3
            j += 4
          } else {
            var s0 = 0.0
            while (t < dim) { s0 += basis(o + t) * x(t); t += 1 }
            t = 0
            while (t < dim) { e(t) -= s0 * basis(o + t); t += 1 }
            y(yi + j) = s0
            j += 1
          }
        }
        j = 0
        while (j < r) { mx(j) = math.max(mx(j), math.abs(y(yi + j))); j += 1 }
        res(i) = Linalg.normD(e)
        mx(r) = math.max(mx(r), Linalg.norm(x))
        mx(r + 1) = math.max(mx(r + 1), res(i))
        i += 1
      }
    }
    val maxAbs = Array.tabulate(r + 2)(j => taskMax.map(_(j)).max)
    // Residual codes of at most 255: a step of max/254 leaves room for the
    // rounding of res/step.
    val residStep = maxAbs(r + 1) / 254
    val resid = new Array[Byte](n)
    val scales = Array.tabulate(r)(j => maxAbs(j) / 127)
    val nBlocks = (n + BlockRows - 1) / BlockRows
    val codes = new Array[Array[Array[Int]]](nBlocks)
    java.util.stream.IntStream.range(0, nBlocks).parallel().forEach { b =>
      val first = b * BlockRows
      val rows = math.min(n, first + BlockRows) - first
      val block = Array.fill(r)(new Array[Int]((rows + 3) >>> 2))
      var t = 0
      while (t < rows) {
        var j = 0
        while (j < r) {
          val s = scales(j)
          if (s > 0) {
            val c = math.max(-127L, math.min(127L, math.round(y((first + t) * r + j) / s))).toInt
            block(j)(t >>> 2) |= (c & 0xff) << (8 * (t & 3))
          }
          j += 1
        }
        t += 1
      }
      codes(b) = block
      for (row <- first until math.min(n, first + BlockRows) if residStep > 0) {
        var u = math.ceil(res(row) / residStep)
        while (u * residStep < res(row)) u += 1
        resid(row) = u.toInt.toByte
      }
    }
    new PrefixTable(dim, r, basis, scales, codes, resid, residStep, maxAbs(r))
  }

  /** Top r eigenvectors of the second-moment matrix of a stride sample of
    * at most `SampleRows` rows, as orthonormal rows of an r × dim matrix.
    * Deterministic: the sample, the sum order and the solver are fixed.
    */
  private def principalBasis(vecs: Array[Array[Float]], r: Int): Array[Double] = {
    val n = vecs.length
    val dim = vecs(0).length
    val m = math.min(n, SampleRows)
    // Lower triangles summed per fixed block of the sample in parallel, then
    // over blocks in order, so the sum does not depend on the pool.
    val nBlocks = (m + SampleBlock - 1) / SampleBlock
    val partial = Array.fill(nBlocks)(new Array[Double](dim * dim))
    java.util.stream.IntStream.range(0, nBlocks).parallel().forEach { blk =>
      val acc = partial(blk)
      for (s <- blk * SampleBlock until math.min(m, (blk + 1) * SampleBlock)) {
        val x = vecs((s.toLong * n / m).toInt)
        var a = 0
        while (a < dim) {
          val xa = x(a).toDouble
          val o = a * dim
          var b = 0
          while (b <= a) { acc(o + b) += xa * x(b); b += 1 }
          a += 1
        }
      }
    }
    val moment = Array.ofDim[Double](dim, dim)
    for (acc <- partial; a <- 0 until dim; b <- 0 to a) moment(a)(b) += acc(a * dim + b)
    for (a <- 0 until dim; b <- 0 until a) moment(b)(a) = moment(a)(b)
    val eig = new EigenDecomposition(new Array2DRowRealMatrix(moment, false))
    val values = eig.getRealEigenvalues
    val order = values.indices.sortBy(j => (-values(j), j))
    val basis = new Array[Double](r * dim)
    for (j <- 0 until r) {
      val v = eig.getEigenvector(order(j))
      for (t <- 0 until dim) basis(j * dim + t) = v.getEntry(t)
    }
    orthonormalize(basis, r, dim)
    basis
  }

  /** Modified Gram–Schmidt, twice, on the rows of an r × dim matrix; then
    * checks that ‖PPᵀ − I‖_F is below 1e-12, as the margin assumes.
    */
  private def orthonormalize(p: Array[Double], r: Int, dim: Int): Unit = {
    def dotRows(a: Int, b: Int): Double = {
      var s = 0.0; var t = 0
      while (t < dim) { s += p(a * dim + t) * p(b * dim + t); t += 1 }
      s
    }
    for (_ <- 0 until 2; j <- 0 until r) {
      for (i <- 0 until j) {
        val c = dotRows(i, j)
        for (t <- 0 until dim) p(j * dim + t) -= c * p(i * dim + t)
      }
      val norm = math.sqrt(dotRows(j, j))
      for (t <- 0 until dim) p(j * dim + t) /= norm
    }
    var err = 0.0
    for (a <- 0 until r; b <- 0 until r) {
      val d = dotRows(a, b) - (if (a == b) 1.0 else 0.0)
      err += d * d
    }
    require(math.sqrt(err) < 1e-12, s"principal basis is not orthonormal: ${math.sqrt(err)}")
  }
}
