package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Example, LBFGS, Linalg, LossFunction}
import repro.data.{DatasetSpec, ImageCorpus}
import repro.embed.PatchRecord
import repro.graph.{DbAlignMatrix, KnnGraph}
import repro.store.{ImageHit, PrefixTable}

/** Reference computations that only the tests use: the exact top-k images
  * and kNN graph by brute force, ground truth read straight from the image
  * metadata, and plain linear algebra the program never needs.
  */
object Reference {

  /** Exact top-k images by the store contract, scoring every row: an
    * image's score is its largest `Linalg.dot` with `q` (the lowest patch id
    * among equal scores), and images rank by (score desc, imgId asc).
    */
  def topImages(records: Seq[PatchRecord], q: Array[Float], k: Int, exclude: Set[Long]): IndexedSeq[ImageHit] =
    records.filterNot(r => exclude.contains(r.imgId)).groupBy(_.imgId).values.map { rows =>
      val scored = rows.map(r => ImageHit(r.imgId, r.patchId, Linalg.dot(r.vec, q)))
      scored.minBy(h => (-h.score, h.patchId))
    }.toIndexedSeq.sortBy(h => (-h.score, h.imgId)).take(k)

  /** The prefix bound of row `i` alone (`PrefixTable`'s doc): its r codes
    * read one at a time from their packed lanes, dotted with the integer
    * weights in component order, then T·Σ_j c_j·W_j + ρ·‖q_⊥‖.
    */
  def prefixBound(t: PrefixTable, i: Int, qb: PrefixTable.Query): Double = {
    val block = t.codes(i / PrefixTable.BlockRows)
    val row = i % PrefixTable.BlockRows
    var a = 0
    for (j <- 0 until t.r) a += (block(j)(row / 4) >>> (8 * (row % 4))).toByte * qb.weights(j)
    a * qb.step + (t.resid(i) & 0xff) * qb.residWeight
  }

  /** Exact kNN graph by exhaustive pairwise distances — O(n²d). */
  def knnBruteForce(vecs: IndexedSeq[Array[Float]], k: Int, sigma: Double): KnnGraph = {
    val n = vecs.length
    require(k > 0 && k < n, s"need 0 < k < n, got k=$k n=$n")
    val nb = new Array[Array[Int]](n)
    val wt = new Array[Array[Double]](n)
    var i = 0
    while (i < n) {
      val d2 = Array.tabulate(n)(j => if (j == i) Double.MaxValue else Linalg.sqDist(vecs(i), vecs(j)))
      val idx = d2.zipWithIndex.sortBy(_._1).take(k).map(_._2)
      nb(i) = idx
      wt(i) = idx.map(j => KnnGraph.gaussianWeight(d2(j), sigma))
      i += 1
    }
    KnnGraph(k, sigma, nb, wt)
  }

  /** Recall of `approx` against an exact graph (fraction of true neighbors found). */
  def recallAgainst(approx: KnnGraph, exact: KnnGraph): Double = {
    require(approx.n == exact.n, "graph size mismatch")
    var hit = 0L; var total = 0L
    var i = 0
    while (i < exact.n) {
      val truth = exact.neighbors(i).toSet
      hit += approx.neighbors(i).count(truth.contains)
      total += truth.size
      i += 1
    }
    hit.toDouble / total
  }

  /** Flat ground-truth boxes: (img_id, obj_idx, cat, mode, x0, y0, x1, y1). */
  def groundTruthBoxes(spark: SparkSession, spec: DatasetSpec, sf: Double): DataFrame = {
    import spark.implicits._
    val n = spec.imagesAt(sf).toLong
    spark.range(n)
      .flatMap { id =>
        ImageCorpus.imageMeta(spec, id).objects.zipWithIndex.map { case (o, i) =>
          (id, i, o.cat, o.mode, o.x0, o.y0, o.x1, o.y1)
        }
      }
      .toDF("img_id", "obj_idx", "cat", "mode", "x0", "y0", "x1", "y1")
  }

  /** Images relevant to a category (contain ≥1 instance of it). */
  def relevantImages(spec: DatasetSpec, sf: Double, cat: Int): Set[Long] =
    ImageCorpus.metasLocal(spec, sf).iterator
      .filter(_.objects.exists(_.cat == cat))
      .map(_.imgId)
      .toSet

  def cosine(a: Array[Float], b: Array[Float]): Double = {
    val na = Linalg.norm(a); val nb = Linalg.norm(b)
    if (na < 1e-12 || nb < 1e-12) 0.0 else Linalg.dot(a, b) / (na * nb)
  }

  /** Quadratic form x^T M x for row-major d×d M. */
  def quadForm(m: Array[Double], d: Int, x: Array[Double]): Double =
    Linalg.dotDD(Linalg.symMatVec(m, d, x), x)

  /** Quadratic form w^T M_D w. */
  def quadForm(mD: DbAlignMatrix, w: Array[Double]): Double = quadForm(mD.m, mD.dim, w)

  /** Row-major d×d matrix times a vector, one row at a time, each row
    * summed in column order.
    */
  def symMatVec(m: Array[Double], d: Int, x: Array[Double]): Array[Double] =
    Array.tabulate(d) { r =>
      var s = 0.0; var c = 0
      while (c < d) { s += m(r * d + c) * x(c); c += 1 }
      s
    }

  /** The query-alignment loss and its gradient (`LossFunction`'s doc)
    * computed one term at a time: each logit a single sum in index order,
    * each example's loss and gradient added in example order, log(1+e^z)
    * and σ(z) each from their own exp, then the penalties' terms one after
    * another, M_D·w by `symMatVec` above.
    */
  def lossValueAndGradient(q0: Array[Float], examples: IndexedSeq[Example], lambda: Double, lambdaC: Double,
      lambdaD: Double, mD: Option[DbAlignMatrix], w: Array[Double]): (Double, Array[Double]) = {
    import LossFunction.FeatureScale
    val dim = q0.length
    val MinNorm = 1e-8
    def dotDF(a: Array[Double], b: Array[Float]): Double = {
      var s = 0.0; var i = 0
      while (i < a.length) { s += a(i) * b(i); i += 1 }
      s
    }
    def sigmoid(z: Double): Double =
      if (z >= 0) 1.0 / (1.0 + math.exp(-z)) else { val e = math.exp(z); e / (1.0 + e) }
    def log1pExp(z: Double): Double =
      if (z > 0) z + math.log1p(math.exp(-z)) else math.log1p(math.exp(z))

    var loss = 0.0
    val grad = new Array[Double](dim)
    var i = 0
    while (i < examples.length) {
      val ex = examples(i)
      val z = FeatureScale * dotDF(w, ex.vec)
      val y = if (ex.positive) 1.0 else 0.0
      loss += log1pExp(z) - y * z
      val coeff = (sigmoid(z) - y) * FeatureScale
      var d = 0
      while (d < dim) { grad(d) += coeff * ex.vec(d); d += 1 }
      i += 1
    }
    val nw2 = math.max(Linalg.dotDD(w, w), MinNorm * MinNorm)
    val nw = math.sqrt(nw2)
    loss += lambda * nw2
    Linalg.axpyD(2.0 * lambda, w, grad)
    if (lambdaC > 0) {
      val wq = dotDF(w, q0)
      loss += lambdaC * (1.0 - wq / nw)
      var d = 0
      while (d < dim) {
        grad(d) += -lambdaC * (q0(d) / nw - wq * w(d) / (nw2 * nw))
        d += 1
      }
    }
    if (lambdaD > 0) {
      val mat = mD.get
      val mw = symMatVec(mat.m, mat.dim, w)
      val wmw = Linalg.dotDD(w, mw)
      loss += lambdaD * wmw / nw2
      var d = 0
      while (d < dim) {
        grad(d) += lambdaD * (2.0 * mw(d) / nw2 - 2.0 * wmw * w(d) / (nw2 * nw2))
        d += 1
      }
    }
    (loss, grad)
  }

  /** `LBFGS.minimize` as it was before lines existed: every line-search
    * trial evaluates `valueAndGradient` at a fresh x + a·d, and the accepted
    * point is that trial's. `evaluations` counts those trials, not the
    * re-evaluation of a collapsed zoom's best point.
    */
  def lbfgsMinimize(f: LBFGS.Objective, x0: Array[Double], maxIters: Int = 100, gradTol: Double = 1e-6): LBFGS.Result = {
    val C1 = 1e-4; val C2 = 0.9; val Memory = 10
    def infNorm(v: Array[Double]): Double = v.foldLeft(0.0)((m, a) => if (math.abs(a) > m) math.abs(a) else m)
    var trials = 0

    def twoLoop(g: Array[Double], sHist: collection.Seq[Array[Double]], yHist: collection.Seq[Array[Double]],
        rhoHist: collection.Seq[Double]): Array[Double] = {
      val q = g.clone()
      val k = sHist.size
      val alpha = new Array[Double](k)
      var i = k - 1
      while (i >= 0) {
        alpha(i) = rhoHist(i) * Linalg.dotDD(sHist(i), q)
        Linalg.axpyD(-alpha(i), yHist(i), q)
        i -= 1
      }
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

    def wolfeSearch(x: Array[Double], f0: Double, g0: Array[Double],
        d: Array[Double]): Option[(Array[Double], Double, Array[Double])] = {
      val dphi0 = Linalg.dotDD(g0, d)
      if (dphi0 >= 0) return None
      def eval(a: Double): (Array[Double], Double, Array[Double], Double) = {
        val xa = x.clone()
        Linalg.axpyD(a, d, xa)
        val (fa, ga) = f.valueAndGradient(xa)
        (xa, fa, ga, Linalg.dotDD(ga, d))
      }
      def trial(a: Double) = { trials += 1; eval(a) }
      def zoom(lo0: Double, fLo0: Double, hi0: Double): Option[(Array[Double], Double, Array[Double])] = {
        var lo = lo0; var fLo = fLo0; var hi = hi0
        var i = 0
        while (i < 30) {
          val a = (lo + hi) / 2.0
          val (xa, fa, ga, dphi) = trial(a)
          if (fa > f0 + C1 * a * dphi0 || fa >= fLo) hi = a
          else {
            if (math.abs(dphi) <= -C2 * dphi0) return Some((xa, fa, ga))
            if (dphi * (hi - lo) >= 0) hi = lo
            lo = a; fLo = fa
          }
          if (math.abs(hi - lo) < 1e-14 * math.max(1.0, math.abs(lo)))
            return if (fLo < f0) Some(eval(lo) match { case (xa2, fa2, ga2, _) => (xa2, fa2, ga2) }) else None
          i += 1
        }
        if (fLo < f0) Some(eval(lo) match { case (xa2, fa2, ga2, _) => (xa2, fa2, ga2) }) else None
      }
      var aPrev = 0.0
      var fPrev = f0
      var a = 1.0
      var i = 0
      while (i < 20) {
        val (xa, fa, ga, dphi) = trial(a)
        if (fa > f0 + C1 * a * dphi0 || (i > 0 && fa >= fPrev)) return zoom(aPrev, fPrev, a)
        if (math.abs(dphi) <= -C2 * dphi0) return Some((xa, fa, ga))
        if (dphi >= 0) return zoom(a, fa, aPrev)
        aPrev = a; fPrev = fa
        a = math.min(a * 2.0, 1e6)
        i += 1
      }
      None
    }

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
      wolfeSearch(x, fx, g, d) match {
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
          sHist.clear(); yHist.clear(); rhoHist.clear()
        case None =>
          stalled = true
      }
      iter += 1
    }
    LBFGS.Result(x, fx, iter, trials, converged)
  }
}
