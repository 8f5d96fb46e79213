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

  /** A point `x` of an objective with its value `f` and gradient `g`. An
    * objective may subclass it to carry what its lines reuse.
    */
  class Point(val objective: Objective, val x: Array[Double], val f: Double, val g: Array[Double])

  /** The objective restricted to the ray x + a·d: φ(a), its slope φ′(a) =
    * ∇f(x + a·d)·d, and the point at `a`. `at(a)` right after `phi(a)` or
    * `slope(a)` reuses that trial's work.
    */
  trait Line {
    def phi(a: Double): Double
    def slope(a: Double): Double
    def at(a: Double): Point
  }

  /** A differentiable objective: value and gradient at a point.
    *
    * `point` and `line` default to full evaluations of `valueAndGradient`
    * at x + a·d. An objective overrides both when a trial along a fixed
    * direction costs less than a full evaluation.
    */
  trait Objective {
    def valueAndGradient(x: Array[Double]): (Double, Array[Double])

    def point(x: Array[Double]): Point = {
      val (f, g) = valueAndGradient(x)
      new Point(this, x, f, g)
    }

    def line(p: Point, d: Array[Double]): Line = {
      checkLine(p, d)
      new FullLine(this, p, d)
    }

    /** A line starts at a point this objective made, along a direction of
      * the point's length.
      */
    protected final def checkLine(p: Point, d: Array[Double]): Unit = {
      require(p.objective eq this, "a line must start at a point of its own objective")
      require(d.length == p.x.length, s"direction length ${d.length} != point length ${p.x.length}")
    }
  }

  /** The line of full evaluations: each trial is `point(x + a·d)`, and the
    * last trial is kept for `slope` and `at`.
    */
  private final class FullLine(f: Objective, p: Point, d: Array[Double]) extends Line {
    private var lastA = Double.NaN
    private var last: Point = _
    private var lastSlope = 0.0

    private def trial(a: Double): Point = {
      if (!(a == lastA)) {
        val xa = p.x.clone()
        Linalg.axpyD(a, d, xa)
        last = f.point(xa)
        lastSlope = Linalg.dotDD(last.g, d)
        lastA = a
      }
      last
    }

    override def phi(a: Double): Double = trial(a).f
    override def slope(a: Double): Double = { trial(a); lastSlope }
    override def at(a: Double): Point = trial(a)
  }

  /** The minimizer `x` and its value after `iterations` L-BFGS steps, whose
    * line searches made `evaluations` trials φ(a) in all.
    */
  final case class Result(x: Array[Double], value: Double, iterations: Int, evaluations: Int, converged: Boolean)

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
    var p = f.point(x0.clone())
    val sHist = scala.collection.mutable.ArrayDeque.empty[Array[Double]]
    val yHist = scala.collection.mutable.ArrayDeque.empty[Array[Double]]
    val rhoHist = scala.collection.mutable.ArrayDeque.empty[Double]

    var iter = 0
    var evals = 0
    var converged = infNorm(p.g) < gradTol
    var stalled = false
    while (iter < maxIters && !converged && !stalled) {
      val dir = twoLoop(p.g, sHist, yHist, rhoHist)
      val d = if (Linalg.dotDD(dir, p.g) >= 0) Linalg.scale(-1.0, p.g) else dir

      val (accepted, trials) = wolfeSearch(f, p, d)
      evals += trials
      accepted match {
        case Some(pNew) =>
          val s = Linalg.sub(pNew.x, p.x)
          val y = Linalg.sub(pNew.g, p.g)
          val sy = Linalg.dotDD(s, y)
          if (sy > 1e-12) {
            sHist.append(s); yHist.append(y); rhoHist.append(1.0 / sy)
            if (sHist.size > Memory) { sHist.removeHead(); yHist.removeHead(); rhoHist.removeHead() }
          }
          p = pNew
          converged = infNorm(p.g) < gradTol
        case None if sHist.nonEmpty =>
          // Stale curvature may have produced a hopeless direction; retry
          // once from a clean slate before giving up.
          sHist.clear(); yHist.clear(); rhoHist.clear()
        case None =>
          stalled = true // steepest descent failed too: numerically done
      }
      iter += 1
    }
    Result(p.x, p.f, iter, evals, converged)
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

  /** Strong-Wolfe line search from `p` along `d`. Returns the accepted
    * point, or None, and the number of trials φ(a) it made.
    */
  private def wolfeSearch(f: Objective, p: Point, d: Array[Double]): (Option[Point], Int) = {
    val f0 = p.f
    val dphi0 = Linalg.dotDD(p.g, d)
    if (dphi0 >= 0) return (None, 0) // not a descent direction
    val line = f.line(p, d)
    var trials = 0

    def phi(a: Double): Double = { trials += 1; line.phi(a) }

    def zoom(lo0: Double, fLo0: Double, hi0: Double): Option[Point] = {
      var lo = lo0; var fLo = fLo0; var hi = hi0
      var i = 0
      while (i < 30) {
        val a = (lo + hi) / 2.0
        val fa = phi(a)
        if (fa > f0 + C1 * a * dphi0 || fa >= fLo) hi = a
        else {
          val dphi = line.slope(a)
          if (math.abs(dphi) <= -C2 * dphi0) return Some(line.at(a))
          if (dphi * (hi - lo) >= 0) hi = lo
          lo = a; fLo = fa
        }
        if (math.abs(hi - lo) < 1e-14 * math.max(1.0, math.abs(lo))) {
          // Interval collapsed: accept the best sufficient-decrease point.
          return if (fLo < f0) Some(line.at(lo)) else None
        }
        i += 1
      }
      if (fLo < f0) Some(line.at(lo)) else None
    }

    def search(): Option[Point] = {
      var aPrev = 0.0
      var fPrev = f0
      var a = 1.0
      var i = 0
      while (i < 20) {
        val fa = phi(a)
        if (fa > f0 + C1 * a * dphi0 || (i > 0 && fa >= fPrev)) return zoom(aPrev, fPrev, a)
        val dphi = line.slope(a)
        if (math.abs(dphi) <= -C2 * dphi0) return Some(line.at(a))
        if (dphi >= 0) return zoom(a, fa, aPrev)
        aPrev = a; fPrev = fa
        a = math.min(a * 2.0, 1e6)
        i += 1
      }
      None
    }

    val accepted = search()
    (accepted, trials)
  }
}
