package repro.integration

import repro.{SparkSpec, TestData}
import repro.bench._
import repro.core.Metrics
import repro.store.LocalVectorStore

/** Small-scale integration sweep asserting the directional claims the full
  * bench tables rest on: SeeSaw improves on zero-shot on hard queries, and
  * the regularized methods do not catastrophically regress easy ones.
  * (Exact table magnitudes are produced by `bench/test` at larger scale.)
  */
class MiniBenchmarkSpec extends SparkSpec {

  private val spec = TestData.tiny()
  private val sf = TestData.SmallSf

  private lazy val methods = Seq[MethodConfig](
    MethodConfig.ZeroShot, MethodConfig.FewShot, MethodConfig.QueryAlign,
    MethodConfig.SeeSaw, MethodConfig.Rocchio)

  private lazy val results =
    BenchmarkRunner.run(spark, spec, sf, methods, multiscale = true)

  private lazy val zsAp = BenchmarkRunner.zeroShotCoarseAp(
    new SimulatedUser(spec, sf), LocalVectorStore.build(spec, sf, multiscale = false))
  private lazy val cats = zsAp.keySet
  private lazy val hard = cats.filter(c => Metrics.isHard(zsAp(c)))

  private def mAp(method: String, subset: Set[Int]): Double =
    BenchmarkRunner.meanAp(results, method, subset)

  test("the tiny corpus has both hard and easy queries") {
    assert(hard.nonEmpty, s"no hard queries (APs: $zsAp)")
    assert(hard.size < cats.size, "every query is hard — corpus misconfigured")
  }

  test("SeeSaw beats zero-shot on the hard subset") {
    val ss = mAp("this work", hard)
    val zs = Metrics.mean(hard.toSeq.map(zsAp))
    assert(ss > zs, s"seesaw $ss vs zero-shot $zs on ${hard.size} hard queries")
  }

  test("query alignment beats few-shot overall (regularization matters)") {
    val qa = mAp("+Query align", cats)
    val fs = mAp("few-shot CLIP", cats)
    assert(qa >= fs - 0.02, s"query-align $qa vs few-shot $fs")
  }

  test("SeeSaw does not regress the overall mean vs zero-shot multiscale") {
    val ss = mAp("this work", cats)
    val zsMulti = mAp("zero-shot CLIP", cats) // multiscale run
    assert(ss >= zsMulti - 0.03, s"seesaw $ss vs zero-shot-multiscale $zsMulti")
  }

  test("every method produces results for every query") {
    methods.foreach { m =>
      assert(results.count(_.method == m.name) == cats.size, m.name)
    }
  }
}
