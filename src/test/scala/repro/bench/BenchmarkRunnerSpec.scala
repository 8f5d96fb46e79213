package repro.bench

import repro.{SparkSpec, TestData}

class BenchmarkRunnerSpec extends SparkSpec {

  private val spec = TestData.tiny()
  private val sf = TestData.OracleSf // 50 images, fast

  test("run produces one result per (category, method)") {
    val methods = Seq[MethodConfig](MethodConfig.ZeroShot, MethodConfig.Rocchio)
    val results = BenchmarkRunner.run(spark, spec, sf, methods, multiscale = false,
      target = 3, budget = 12)
    val user = new SimulatedUser(spec, sf)
    assert(results.size == user.queryCategories.size * methods.size)
    assert(results.map(_.method).toSet == Set("zero-shot CLIP", "Rocchio"))
    results.foreach { r =>
      assert(r.ap >= 0 && r.ap <= 1)
      assert(r.nSeen <= 12)
      assert(r.dataset == spec.name)
    }
  }

  test("Spark-parallel results equal driver-side sessions") {
    val methods = Seq[MethodConfig](MethodConfig.ZeroShot)
    val results = BenchmarkRunner.run(spark, spec, sf, methods, multiscale = false,
      target = 3, budget = 12)
    val user = new SimulatedUser(spec, sf)
    val store = repro.store.LocalVectorStore.build(spec, sf, multiscale = false)
    results.foreach { r =>
      val o = SearchSession.run(store, user, r.cat, MethodConfig.ZeroShot,
        multiscale = false, target = 3, budget = 12)
      assert(math.abs(o.ap - r.ap) < 1e-12, s"cat ${r.cat}")
      assert(o.nSeen == r.nSeen && o.nFound == r.nFound)
    }
  }

  test("prepare builds M_D only when needed") {
    val a1 = BenchmarkRunner.prepare(spark, spec, sf, multiscale = false,
      needMd = false, needGraph = false)
    assert(a1.mD.isEmpty && a1.graphCtx.isEmpty)
    val a2 = BenchmarkRunner.prepare(spark, spec, sf, multiscale = false,
      needMd = true, needGraph = true)
    assert(a2.mD.isDefined && a2.graphCtx.isDefined)
    assert(a2.graphCtx.get.coarseVecs eq a2.store.vecs) // coarse store built once
    assert(a2.mD.get.dim == spec.dim)
    assert(a2.graphCtx.get.graph.n == a2.user.nImages)
  }

  test("prepare rejects an ENS graph over a multiscale store") {
    assertThrows[IllegalArgumentException](BenchmarkRunner.prepare(spark, spec, sf, multiscale = true,
      needMd = false, needGraph = true))
  }

  test("SeeSaw with DB alignment runs end-to-end through the Spark sweep") {
    val results = BenchmarkRunner.run(spark, spec, sf, Seq(MethodConfig.SeeSaw),
      multiscale = true, target = 3, budget = 12)
    assert(results.nonEmpty)
    results.foreach(r => assert(r.ap >= 0 && r.ap <= 1))
  }

  test("zeroShotCoarseAp covers every query category") {
    val user = new SimulatedUser(spec, sf)
    val aps = BenchmarkRunner.zeroShotCoarseAp(user, repro.store.LocalVectorStore.build(spec, sf, multiscale = false))
    assert(aps.keySet == user.queryCategories.toSet)
    aps.values.foreach(v => assert(v >= 0 && v <= 1))
  }

  test("meanAp filters by method and category subset") {
    val rs = Seq(
      QueryResult("d", "m1", 0, 0.5, 1, 1),
      QueryResult("d", "m1", 1, 1.0, 1, 1),
      QueryResult("d", "m2", 0, 0.0, 1, 1),
    )
    assert(BenchmarkRunner.meanAp(rs, "m1", Set(0, 1)) == 0.75)
    assert(BenchmarkRunner.meanAp(rs, "m1", Set(1)) == 1.0)
    assert(BenchmarkRunner.meanAp(rs, "m2", Set(0, 1)) == 0.0)
    assert(BenchmarkRunner.meanAp(rs, "m3", Set(0)) == 0.0) // empty mean
  }
}
