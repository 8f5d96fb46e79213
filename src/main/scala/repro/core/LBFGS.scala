package repro.core

/** Limited-memory BFGS with a strong-Wolfe line search
  * (Nocedal & Wright, Algorithms 3.5/3.6 + two-loop recursion 7.4).
  *
  * The paper minimizes its query-alignment loss with PyTorch's L-BFGS
  * (§4.4); this is the equivalent substrate built from scratch. The strong
  * Wolfe conditions keep the curvature pairs (s, y) well-conditioned, which
  * Armijo-only backtracking does not (it stalls in narrow valleys).
  */
object LBFGS {

  /** A differentiable objective: value and gradient at a point. */
  trait Objective {
    def valueAndGradient(x: Array[Double]): (Double, Array[Double])
  }

  final case class Result(x: Array[Double], value: Double, iterations: Int, converged: Boolean)

  private val C1 = 1e-4 // sufficient-decrease constant
  private val C2 = 0.9 // curvature constant
  private val Memory = 10 // (s, y) correction pairs kept, the paper-typical value

  /** Minimize `f` starting at `x0`.
    *
    * @param maxIters hard iteration cap
    * @param gradTol  stop when the gradient inf-norm falls below this
    */
  def minimize(
      f: Objective,
      x0: Array[Double],
      maxIters: Int = 100,
      gradTol: Double = 1e-6,
  ): Result = {
    var x = x0.clone()
    var (fx, g) = f.valueAndGradient(x)
    val sHist = scala.collection.mutable.ArrayDeque.empty[Array[Double]]
    val yHist = scala.collection.mutable.ArrayDeque.empty[Array[Double]]
    val rhoHist = scala.collection.mutable.ArrayDeque.empty[Double]

    var iter = 0
    var converged = infNorm(g) < gradTol
    var stalled = false
    while (iter < maxIters && !converged && !stalled) {
      val dir = twoLoop(g, sHist, yHist, rhoHist)
      val d = if (Linalg.dotDD(dir, g) >= 0) Linalg.scale(-1.0, g) else dir

      wolfeSearch(f, x, fx, g, d) match {
        case Some((xNew, fNew, gNew)) =>
          val s = Linalg.sub(xNew, x)
          val y = Linalg.sub(gNew, g)
          val sy = Linalg.dotDD(s, y)
          if (sy > 1e-12) {
            sHist.append(s); yHist.append(y); rhoHist.append(1.0 / sy)
            if (sHist.size > Memory) { sHist.removeHead(); yHist.removeHead(); rhoHist.removeHead() }
          }
          x = xNew; fx = fNew; g = gNew
          converged = infNorm(g) < gradTol
        case None if sHist.nonEmpty =>
          // Stale curvature may have produced a hopeless direction; retry
          // once from a clean slate before giving up.
          sHist.clear(); yHist.clear(); rhoHist.clear()
        case None =>
          stalled = true // steepest descent failed too: numerically done
      }
      iter += 1
    }
    Result(x, fx, iter, converged)
  }

  private def infNorm(v: Array[Double]): Double = {
    var m = 0.0; var i = 0
    while (i < v.length) { val a = math.abs(v(i)); if (a > m) m = a; i += 1 }
    m
  }

  /** Classic two-loop recursion producing the search direction −H·g. */
  private def twoLoop(
      g: Array[Double],
      sHist: collection.Seq[Array[Double]],
      yHist: collection.Seq[Array[Double]],
      rhoHist: collection.Seq[Double],
  ): Array[Double] = {
    val q = g.clone()
    val k = sHist.size
    val alpha = new Array[Double](k)
    var i = k - 1
    while (i >= 0) {
      alpha(i) = rhoHist(i) * Linalg.dotDD(sHist(i), q)
      Linalg.axpyD(-alpha(i), yHist(i), q)
      i -= 1
    }
    // Initial Hessian scaling gamma = s·y / y·y of the most recent pair.
    if (k > 0) {
      val y = yHist(k - 1); val s = sHist(k - 1)
      val gamma = Linalg.dotDD(s, y) / math.max(Linalg.dotDD(y, y), 1e-12)
      var j = 0
      while (j < q.length) { q(j) *= gamma; j += 1 }
    }
    i = 0
    while (i < k) {
      val beta = rhoHist(i) * Linalg.dotDD(yHist(i), q)
      Linalg.axpyD(alpha(i) - beta, sHist(i), q)
      i += 1
    }
    Linalg.scale(-1.0, q)
  }

  /** Strong-Wolfe line search. Returns the accepted point or None. */
  private def wolfeSearch(
      f: Objective,
      x: Array[Double],
      f0: Double,
      g0: Array[Double],
      d: Array[Double],
  ): Option[(Array[Double], Double, Array[Double])] = {
    val dphi0 = Linalg.dotDD(g0, d)
    if (dphi0 >= 0) return None // not a descent direction

    def eval(a: Double): (Array[Double], Double, Array[Double], Double) = {
      val xa = x.clone()
      Linalg.axpyD(a, d, xa)
      val (fa, ga) = f.valueAndGradient(xa)
      (xa, fa, ga, Linalg.dotDD(ga, d))
    }

    def zoom(lo0: Double, fLo0: Double, hi0: Double): Option[(Array[Double], Double, Array[Double])] = {
      var lo = lo0; var fLo = fLo0; var hi = hi0
      var i = 0
      while (i < 30) {
        val a = (lo + hi) / 2.0
        val (xa, fa, ga, dphi) = eval(a)
        if (fa > f0 + C1 * a * dphi0 || fa >= fLo) hi = a
        else {
          if (math.abs(dphi) <= -C2 * dphi0) return Some((xa, fa, ga))
          if (dphi * (hi - lo) >= 0) hi = lo
          lo = a; fLo = fa
        }
        if (math.abs(hi - lo) < 1e-14 * math.max(1.0, math.abs(lo))) {
          // Interval collapsed: accept the best sufficient-decrease point.
          return if (fLo < f0) Some(eval(lo) match { case (xa2, fa2, ga2, _) => (xa2, fa2, ga2) })
          else None
        }
        i += 1
      }
      if (fLo < f0) Some(eval(lo) match { case (xa2, fa2, ga2, _) => (xa2, fa2, ga2) }) else None
    }

    var aPrev = 0.0
    var fPrev = f0
    var a = 1.0
    var i = 0
    while (i < 20) {
      val (xa, fa, ga, dphi) = eval(a)
      if (fa > f0 + C1 * a * dphi0 || (i > 0 && fa >= fPrev)) return zoom(aPrev, fPrev, a)
      if (math.abs(dphi) <= -C2 * dphi0) return Some((xa, fa, ga))
      if (dphi >= 0) return zoom(a, fa, aPrev)
      aPrev = a; fPrev = fa
      a = math.min(a * 2.0, 1e6)
      i += 1
    }
    None
  }
}
