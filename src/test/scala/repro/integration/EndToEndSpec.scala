package repro.integration

import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestPipeline}
import repro.data.Regions
import repro.exp.Experiments

/** Full-scale integration: the complete corpus (45,772 recipes) flows
  * through phrase synthesis → aliasing → analysis, and the headline
  * numbers of the paper must come out.
  */
class EndToEndSpec extends AnyFunSuite with SparkSpec {

  private lazy val p = TestPipeline.get(spark, scale = 1.0)

  // CAN/SEA are the weakest positive plants, KOR/EE the weakest negative.
  private val PairingRegions = Vector("ITA", "CAN", "SEA", "SCND", "KOR", "EE")
  private lazy val pairingRows =
    Experiments.foodPairing(p, nRand = 1500, regions = PairingRegions)

  test("Table 1 is reproduced exactly: recipe counts per region") {
    val rows = Experiments.table1(p).map(r => r.region -> r.recipes).toMap
    for (spec <- Regions.all)
      assert(rows(spec.code) == spec.recipes, spec.code)
  }

  test("Table 1 is reproduced exactly: unique ingredient counts per region") {
    val rows = Experiments.table1(p).map(r => r.region -> r.ingredients).toMap
    for (spec <- Regions.all)
      assert(rows(spec.code) == spec.ingredients, spec.code)
  }

  test("WORLD row counts all 45772 recipes") {
    val world = Experiments.table1(p).find(_.region == "WORLD").get
    assert(world.recipes == 45772)
  }

  test("average recipe size is about nine at full scale (Fig 3a)") {
    val world = Experiments.meanSizes(p).find(_.region == "WORLD").get
    assert(world.meanSize > 8.3 && world.meanSize < 9.7, world.meanSize)
  }

  test("popularity scaling is consistent across all regions (Fig 3b)") {
    val slopes = Experiments.popularitySlopes(p).toMap
    val vals = slopes.values.toVector
    assert(vals.forall(s => s < -0.3 && s > -2.5))
    assert(vals.max - vals.min < 1.0, s"spread ${vals.max - vals.min}")
  }

  test("food pairing signs are recovered for strong and weak regions (Fig 4)") {
    for (r <- pairingRows if r.model == "random") {
      val expected = Regions.byCode(r.region).zSign
      assert(r.z * expected > 0, s"${r.region} z=${r.z}, expected sign $expected")
      assert(math.abs(r.z) > 3, s"${r.region} |z|=${math.abs(r.z)} not significant")
    }
  }

  test("no cuisine is indistinguishable from random (paper Section II.C)") {
    assert(pairingRows.filter(_.model == "random").forall(r => math.abs(r.z) > 2))
  }
}
