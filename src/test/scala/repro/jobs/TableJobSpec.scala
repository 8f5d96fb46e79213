package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class TableJobSpec extends AnyFunSuite {

  test("TableJob rejects an unknown or missing table number") {
    assertThrows[IllegalArgumentException](TableJob.main(Array("8")))
    assertThrows[IllegalArgumentException](TableJob.main(Array("table2", "0.01")))
    assertThrows[IllegalArgumentException](TableJob.main(Array.empty))
  }
}
