package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.{Reference, TestData}
import repro.data.ImageCorpus
import repro.embed.ClipSim

class SimulatedUserSpec extends AnyFunSuite {

  private val spec = TestData.tiny()
  private val sf = TestData.SmallSf
  private lazy val user = new SimulatedUser(spec, sf)

  test("nImages matches the corpus") {
    assert(user.nImages == spec.imagesAt(sf))
  }

  test("isRelevant agrees with the ground-truth metadata") {
    for (id <- 0L until 50L; cat <- 0 until spec.nCats) {
      val expected = ImageCorpus.imageMeta(spec, id).objects.exists(_.cat == cat)
      assert(user.isRelevant(id, cat) == expected)
    }
  }

  test("gtBoxes returns exactly the category's object boxes") {
    for (id <- 0L until 30L) {
      val m = ImageCorpus.imageMeta(spec, id)
      for (cat <- m.objects.map(_.cat).distinct) {
        val boxes = user.gtBoxes(id, cat)
        assert(boxes.size == m.objects.count(_.cat == cat))
      }
      assert(user.gtBoxes(id, spec.nCats - 1).isEmpty ||
        m.objects.exists(_.cat == spec.nCats - 1))
    }
  }

  test("totalRelevant counts images, not instances") {
    for (cat <- 0 until spec.nCats) {
      val expected = Reference.relevantImages(spec, sf, cat).size
      assert(user.totalRelevant(cat) == expected, s"cat $cat")
    }
  }

  test("queryCategories are exactly the categories with relevant images") {
    val expected = (0 until spec.nCats).filter(Reference.relevantImages(spec, sf, _).nonEmpty)
    assert(user.queryCategories == expected)
  }

  test("textEmbedding comes from the concept space") {
    assert(user.textEmbedding(0).sameElements(spec.conceptSpace.textEmbedding(0)))
  }

  test("labelPatches: coarse patch is positive iff the image is relevant") {
    for (id <- 0L until 40L; cat <- 0 until spec.nCats) {
      val patches = ClipSim.patchRecords(spec, user.meta(id), multiscale = true)
      val labels = user.labelPatches(patches, cat)
      // Coarse patch covers the whole image, so it overlaps any GT box.
      assert(labels.head.positive == user.isRelevant(id, cat))
    }
  }

  test("labelPatches: a patch is positive iff it overlaps a GT box") {
    var positives = 0
    for (id <- 0L until 40L) {
      val m = user.meta(id)
      val cat = m.objects.head.cat
      val patches = ClipSim.patchRecords(spec, m, multiscale = true)
      val labels = user.labelPatches(patches, cat)
      val boxes = user.gtBoxes(id, cat)
      patches.zip(labels).foreach { case (p, l) =>
        assert(l.positive == boxes.exists(_.overlaps(p.box)))
        if (l.positive) positives += 1
      }
    }
    assert(positives > 40) // multiscale yields several positive patches per image
  }

  test("labelPatches on an irrelevant image yields all negatives") {
    val irrelevant = (0L until 100L).find(id => !user.isRelevant(id, 11))
    irrelevant.foreach { id =>
      val patches = ClipSim.patchRecords(spec, user.meta(id), multiscale = true)
      assert(user.labelPatches(patches, 11).forall(!_.positive))
    }
  }

  test("labelPatches keeps patch vectors intact") {
    val patches = ClipSim.patchRecords(spec, user.meta(0), multiscale = true)
    val labels = user.labelPatches(patches, 0)
    patches.zip(labels).foreach { case (p, l) => assert(l.vec.sameElements(p.vec)) }
  }

  test("labelPatches rejects an empty patch list") {
    assertThrows[IllegalArgumentException](user.labelPatches(Seq.empty, 0))
  }

  test("user survives serialization (executors rebuild ground truth)") {
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(user)
    val copy = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[SimulatedUser]
    assert(copy.nImages == user.nImages)
    assert(copy.totalRelevant(0) == user.totalRelevant(0))
    assert(copy.isRelevant(5L, 2) == user.isRelevant(5L, 2))
  }
}
