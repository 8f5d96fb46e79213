package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.Metrics
import repro.graph.{DbAlign, KnnGraph}
import repro.store.LocalVectorStore

class SearchSessionSpec extends AnyFunSuite {

  private val spec = TestData.tiny()
  private val sf = TestData.SmallSf
  private lazy val user = new SimulatedUser(spec, sf)
  private lazy val store = LocalVectorStore.build(spec, sf, multiscale = true)
  private lazy val coarse = LocalVectorStore.build(spec, sf, multiscale = false)
  private lazy val graphCtx = {
    val vecs = coarse.vecs
    GraphContext(KnnGraph.nnDescent(vecs.toIndexedSeq, 10, 0.5), vecs)
  }
  private lazy val mD = {
    val vecs = store.vecs.toIndexedSeq
    Some(DbAlign.fromGraphLocal(KnnGraph.nnDescent(vecs, 10, 0.5), vecs))
  }

  private def cat = user.queryCategories.head

  test("zero-shot stops at target found or budget exhausted") {
    for (c <- user.queryCategories.take(6)) {
      val o = SearchSession.run(store, user, c, MethodConfig.ZeroShot, multiscale = true)
      assert(o.nSeen <= Metrics.DefaultBudget)
      assert(o.nFound <= Metrics.DefaultTarget)
      assert(o.nFound == Metrics.DefaultTarget || o.nSeen == Metrics.DefaultBudget ||
        o.nSeen == user.nImages)
    }
  }

  test("zero-shot is deterministic") {
    val a = SearchSession.run(store, user, cat, MethodConfig.ZeroShot, multiscale = true)
    val b = SearchSession.run(store, user, cat, MethodConfig.ZeroShot, multiscale = true)
    assert(a == b)
  }

  test("trace never repeats an image (exclusion works end to end)") {
    // Seen-set correctness is observable through trace length ≤ images and
    // the session never looping forever; verify via a small budget sweep.
    val o = SearchSession.run(store, user, cat, MethodConfig.SeeSaw, multiscale = true,
      mD = mD, target = 5, budget = 30)
    assert(o.nSeen <= 30)
  }

  test("AP is in [0,1] for all methods") {
    val methods = Seq[MethodConfig](
      MethodConfig.ZeroShot, MethodConfig.FewShot, MethodConfig.QueryAlign,
      MethodConfig.SeeSaw, MethodConfig.Rocchio, MethodConfig.EnsCfg())
    methods.foreach { m =>
      val o = SearchSession.run(store, user, cat, m, multiscale = true,
        mD = mD, graphCtx = Some(graphCtx), target = 5, budget = 20)
      assert(o.ap >= 0.0 && o.ap <= 1.0, s"${m.name}: ${o.ap}")
      assert(o.method == m.name)
    }
  }

  test("AP matches Metrics applied to the trace") {
    val o = SearchSession.run(store, user, cat, MethodConfig.ZeroShot, multiscale = true)
    assert(o.ap == Metrics.averagePrecision(o.trace, user.totalRelevant(cat)))
  }

  test("a perfect search scores AP 1 for a common category") {
    // Use the ideal query: the category prototype itself on an easy search
    // (common category with target 1 — the top hit should be relevant often).
    val outcomes = user.queryCategories.map { c =>
      SearchSession.run(store, user, c, MethodConfig.ZeroShot, multiscale = true, target = 1)
    }
    assert(outcomes.exists(_.ap == 1.0), "no category achieved AP 1 at target 1")
  }

  test("ENS requires a graph context") {
    assertThrows[RuntimeException] {
      SearchSession.run(store, user, cat, MethodConfig.EnsCfg(), multiscale = false)
    }
  }

  test("ENS session respects budget and finds results on an easy query") {
    val o = SearchSession.run(coarse, user, cat, MethodConfig.EnsCfg(), multiscale = false,
      graphCtx = Some(graphCtx), target = 5, budget = 40)
    assert(o.nSeen <= 40)
    assert(o.trace.nonEmpty)
  }

  test("calibrated ENS prior differs from raw prior") {
    val raw = SearchSession.ensPrior(user, cat, graphCtx, calibrated = false)
    val cal = SearchSession.ensPrior(user, cat, graphCtx, calibrated = true)
    assert(raw.length == cal.length)
    assert(!raw.sameElements(cal))
    // Calibrated mean should approximate the true base rate.
    val baseRate = user.totalRelevant(cat).toDouble / user.nImages
    val calMean = cal.sum / cal.length
    assert(math.abs(calMean - baseRate) < 0.1, s"calMean $calMean baseRate $baseRate")
    // Raw mean is far off for rare categories (that is the point).
    val rawMean = raw.sum / raw.length
    assert(rawMean > baseRate, s"rawMean $rawMean")
  }

  test("feedback methods respond to feedback (trace differs from zero-shot on some query)") {
    val diffs = user.queryCategories.count { c =>
      val zs = SearchSession.run(store, user, c, MethodConfig.ZeroShot, multiscale = true)
      val ss = SearchSession.run(store, user, c, MethodConfig.SeeSaw, multiscale = true, mD = mD)
      zs.trace != ss.trace
    }
    assert(diffs > 0, "SeeSaw never deviated from zero-shot")
  }

  test("invalid target/budget are rejected") {
    assertThrows[IllegalArgumentException] {
      SearchSession.run(store, user, cat, MethodConfig.ZeroShot, multiscale = true,
        target = 0, budget = 10)
    }
    assertThrows[IllegalArgumentException] {
      SearchSession.run(store, user, cat, MethodConfig.ZeroShot, multiscale = true,
        target = 10, budget = 5)
    }
  }
}
