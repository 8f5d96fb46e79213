package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {
  import Metrics.averagePrecision

  test("perfect trace scores 1") {
    val trace = Seq.fill(10)(true)
    assert(averagePrecision(trace, totalRelevant = 100) == 1.0)
  }

  test("no relevant results scores 0") {
    assert(averagePrecision(Seq.fill(60)(false), totalRelevant = 50) == 0.0)
  }

  test("empty trace scores 0") {
    assert(averagePrecision(Seq.empty, totalRelevant = 50) == 0.0)
  }

  test("zero relevant in dataset scores 0") {
    assert(averagePrecision(Seq(true), totalRelevant = 0) == 0.0)
  }

  test("single relevant at rank 1 with R=1 scores 1") {
    assert(averagePrecision(Seq(true), totalRelevant = 1) == 1.0)
  }

  test("single relevant at rank 2 with R=1 scores 1/2") {
    assert(averagePrecision(Seq(false, true), totalRelevant = 1) == 0.5)
  }

  test("paper formula: AP = mean of precisions at each relevant result") {
    // Relevant at ranks 1, 3: P = 1/1, 2/3. R = 2.
    val trace = Seq(true, false, true)
    val expected = (1.0 + 2.0 / 3.0) / 2.0
    assert(math.abs(averagePrecision(trace, totalRelevant = 2) - expected) < 1e-12)
  }

  test("missing relevant results contribute zero precision") {
    // One of R=2 found at rank 1; the other never found.
    assert(averagePrecision(Seq(true, false, false), totalRelevant = 2) == 0.5)
  }

  test("R caps at the target of 10") {
    // 10 immediate hits out of 1000 relevant: AP = 1 under the paper's cap.
    val trace = Seq.fill(10)(true)
    assert(averagePrecision(trace, totalRelevant = 1000, target = 10) == 1.0)
  }

  test("relevant results beyond the target are ignored") {
    // 10 hits then garbage; extra trailing results must not change AP.
    val t1 = Seq.fill(10)(true)
    val t2 = Seq.fill(10)(true) ++ Seq.fill(20)(false)
    assert(averagePrecision(t1, 50) == averagePrecision(t2, 50))
  }

  test("earlier hits score higher (AP rewards early results)") {
    val early = averagePrecision(Seq(true, false, false, true), totalRelevant = 2)
    val late = averagePrecision(Seq(false, false, true, true), totalRelevant = 2)
    assert(early > late)
  }

  test("AP is within [0,1] on random traces") {
    for (s <- 0 until 200) {
      val len = 1 + Rng.int(Rng.key(1, s), 60)
      val trace = (0 until len).map(i => Rng.uniform(Rng.key(2, s, i)) < 0.3)
      val total = 1 + Rng.int(Rng.key(3, s), 30)
      val ap = averagePrecision(trace, total)
      assert(ap >= 0.0 && ap <= 1.0, s"s=$s ap=$ap")
    }
  }

  test("adding a leading miss never increases AP") {
    for (s <- 0 until 100) {
      val len = 1 + Rng.int(Rng.key(5, s), 30)
      val trace = (0 until len).map(i => Rng.uniform(Rng.key(6, s, i)) < 0.4)
      val total = 1 + Rng.int(Rng.key(7, s), 20)
      assert(averagePrecision(false +: trace, total) <= averagePrecision(trace, total) + 1e-12)
    }
  }

  test("negative totalRelevant is rejected") {
    assertThrows[IllegalArgumentException](averagePrecision(Seq(true), -1))
  }

  test("mean of empty sequence is 0") {
    assert(Metrics.mean(Seq.empty) == 0.0)
  }

  test("mean computes the arithmetic mean") {
    assert(Metrics.mean(Seq(1.0, 2.0, 6.0)) == 3.0)
  }

  test("hard-subset rule matches the paper's threshold") {
    assert(Metrics.isHard(0.49))
    assert(!Metrics.isHard(0.5))
    assert(!Metrics.isHard(1.0))
  }
}
