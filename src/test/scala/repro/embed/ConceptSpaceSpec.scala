package repro.embed

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.{Reference, TestData}
import repro.core.Linalg
import repro.data.{DatasetSpec, ImageCorpus}
import repro.store.LocalVectorStore

class ConceptSpaceSpec extends AnyFunSuite {

  private def space(
      goodFrac: Double = 0.5,
      splitFrac: Double = 0.2,
      seed: Long = 17,
  ) = ConceptSpace(
    dim = 64, nCats = 40, nBg = 20, seed = seed,
    deficitGoodFrac = goodFrac,
    deficitGoodRange = (0.0, 0.3),
    deficitBadRange = (0.6, 2.0),
    localitySplitFrac = splitFrac,
  )

  test("category prototypes are unit vectors") {
    val cs = space()
    for (k <- 0 until cs.nCats)
      assert(math.abs(Linalg.norm(cs.catProto(k)) - 1.0) < 1e-5)
  }

  test("background prototypes are unit vectors") {
    val cs = space()
    for (j <- 0 until cs.nBg)
      assert(math.abs(Linalg.norm(cs.bgProto(j)) - 1.0) < 1e-5)
  }

  test("prototypes are deterministic in (seed, index)") {
    assert(space().catProto(3).sameElements(space().catProto(3)))
    assert(!space(seed = 18).catProto(3).sameElements(space().catProto(3)))
  }

  test("distinct categories have near-orthogonal prototypes in high dim") {
    val cs = space()
    val cosines = for (a <- 0 until 10; b <- (a + 1) until 10)
      yield math.abs(Reference.cosine(cs.catProto(a), cs.catProto(b)))
    assert(cosines.max < 0.5, s"max |cos| ${cosines.max}")
  }

  test("out-of-range category index is rejected") {
    assertThrows[IllegalArgumentException](space().catProto(40))
    assertThrows[IllegalArgumentException](space().catProto(-1))
  }

  test("alignment deficit controls the text-query angle: cos = 1/sqrt(1+δ²)") {
    val cs = space()
    for (k <- 0 until cs.nCats) {
      val delta = cs.alignmentDeficit(k)
      val expected = 1.0 / math.sqrt(1.0 + delta * delta)
      val got = Reference.cosine(cs.textEmbedding(k), cs.catProto(k))
      assert(math.abs(got - expected) < 1e-4, s"cat $k: cos $got vs $expected (δ=$delta)")
    }
  }

  test("deficits fall in the configured ranges") {
    val cs = space()
    for (k <- 0 until cs.nCats) {
      val d = cs.alignmentDeficit(k)
      assert((d >= 0.0 && d < 0.3) || (d >= 0.6 && d < 2.0), s"cat $k deficit $d")
    }
  }

  test("goodFrac=1 yields only small deficits") {
    val cs = space(goodFrac = 1.0)
    for (k <- 0 until cs.nCats) assert(cs.alignmentDeficit(k) < 0.3)
  }

  test("goodFrac=0 yields only large deficits") {
    val cs = space(goodFrac = 0.0)
    for (k <- 0 until cs.nCats) assert(cs.alignmentDeficit(k) >= 0.6)
  }

  test("roughly the configured fraction of categories is well-aligned") {
    val cs = ConceptSpace(dim = 32, nCats = 400, nBg = 10, seed = 5,
      deficitGoodFrac = 0.5, deficitGoodRange = (0.0, 0.3),
      deficitBadRange = (0.6, 2.0), localitySplitFrac = 0.0)
    val frac = (0 until 400).count(cs.alignmentDeficit(_) < 0.3).toDouble / 400
    assert(math.abs(frac - 0.5) < 0.1, s"frac $frac")
  }

  test("text embeddings are unit vectors") {
    val cs = space()
    for (k <- 0 until cs.nCats)
      assert(math.abs(Linalg.norm(cs.textEmbedding(k)) - 1.0) < 1e-5)
  }

  test("split fraction controls the number of two-mode categories") {
    val none = space(splitFrac = 0.0)
    for (k <- 0 until none.nCats) assert(none.nModes(k) == 1)
    val all = space(splitFrac = 1.0)
    for (k <- 0 until all.nCats) assert(all.nModes(k) == 2)
  }

  test("mode 0 prototype equals the category prototype") {
    val cs = space(splitFrac = 1.0)
    assert(cs.modeProto(5, 0).sameElements(cs.catProto(5)))
  }

  test("mode 1 prototype is far from mode 0 (locality deficit)") {
    val cs = space(splitFrac = 1.0)
    for (k <- 0 until 10) {
      val cos = Reference.cosine(cs.modeProto(k, 0), cs.modeProto(k, 1))
      val expected = 1.0 / math.sqrt(1.0 + ConceptSpace.SplitDistance * ConceptSpace.SplitDistance)
      assert(math.abs(cos - expected) < 1e-4, s"cat $k cos $cos")
    }
  }

  test("requesting mode 1 of a single-mode category is rejected") {
    val cs = space(splitFrac = 0.0)
    assertThrows[IllegalArgumentException](cs.modeProto(0, 1))
  }

  test("modeProto rejects an out-of-range category for either mode") {
    val cs = space(splitFrac = 1.0)
    assertThrows[IllegalArgumentException](cs.modeProto(40, 0))
    assertThrows[IllegalArgumentException](cs.modeProto(40, 1))
    assertThrows[IllegalArgumentException](cs.modeProto(-1, 1))
  }

  test("invalid constructor arguments are rejected") {
    assertThrows[IllegalArgumentException](space(goodFrac = 1.5))
    assertThrows[IllegalArgumentException] {
      ConceptSpace(0, 1, 1, 0, 0.5, (0.0, 0.1), (0.5, 1.0), 0.1)
    }
  }

  private def javaBytes(o: AnyRef): Array[Byte] = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(o)
    out.close()
    bytes.toByteArray
  }

  test("serialization ships no prototype table, and a round trip re-embeds identically") {
    val spec = TestData.tiny()
    val freshSpec = javaBytes(spec).length
    val freshSpace = javaBytes(spec.conceptSpace.copy()).length
    val meta = ImageCorpus.imageMeta(spec, 3)
    val before = ClipSim.patchRecords(spec, meta, multiscale = true)
    val filled = javaBytes(spec)
    assert(filled.length == freshSpec)
    assert(javaBytes(spec.conceptSpace).length == freshSpace)
    val back = new ObjectInputStream(new ByteArrayInputStream(filled)).readObject().asInstanceOf[DatasetSpec]
    assert(back == spec)
    val after = ClipSim.patchRecords(back, meta, multiscale = true)
    assert(after.map(_.vec.toVector) == before.map(_.vec.toVector))
  }

  test("building a store and embedding text leave every shared prototype row unchanged") {
    val spec = TestData.tiny().copy(localitySplitFrac = 0.5)
    LocalVectorStore.build(spec, TestData.OracleSf, multiscale = true)
    val cs = spec.conceptSpace
    (0 until cs.nCats).foreach(cs.textEmbedding)
    val fresh = cs.copy()
    assert((0 until cs.nCats).exists(cs.nModes(_) == 2))
    for (k <- 0 until cs.nCats; m <- 0 until cs.nModes(k))
      assert(cs.modeProto(k, m).sameElements(fresh.modeProto(k, m)), s"mode $m of category $k")
    for (k <- 0 until cs.nCats) assert(cs.catProto(k).sameElements(fresh.catProto(k)), s"category $k")
    for (j <- 0 until cs.nBg) assert(cs.bgProto(j).sameElements(fresh.bgProto(j)), s"bg concept $j")
  }
}
