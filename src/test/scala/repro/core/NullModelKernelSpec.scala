package repro.core

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestPipeline}
import repro.exp.Experiments
import repro.exp.Experiments.PairingRow
import repro.flavor.FlavorGen

/** The Fig-4 driver kernel (sampler arrays scored against the dense overlap
  * matrix) against its Spark reference, and its determinism.
  */
class NullModelKernelSpec extends AnyFunSuite with SparkSpec {

  private lazy val p = TestPipeline.get(spark)
  private lazy val profiles =
    RandomModels.profiles(spark, Experiments.regionalRecipes(p), p.ingredients, Vector("GRC", "USA"))

  private def relClose(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    a == b || math.abs(a - b) <= tol * math.max(math.abs(a), math.abs(b))

  test("kernel scores equal the Spark operator on sampled cuisines for all four models") {
    import spark.implicits._
    for (region <- Seq("GRC", "USA"); model <- RandomModels.AllModels) {
      val prof = profiles(region)
      val kernel = RandomModels.nullScore(p.universe, prof, model, 1500, seed = 5L)
      val sample = RandomModels.sampleRows(prof, model, 1500, seed = 5L)
        .toDF("region", "recipe_id", "ing_id")
      val ref = FoodPairing.cuisineScores(FoodPairing.recipeScores(
        spark, sample, p.pairShared)).collect()(0)
      val key = s"$region@${model.name}"
      assert(relClose(kernel.ns, ref.getDouble(1)), s"$key N_s ${kernel.ns} vs ${ref.getDouble(1)}")
      assert(relClose(kernel.sigma, ref.getDouble(2)), s"$key sigma ${kernel.sigma} vs ${ref.getDouble(2)}")
      assert(kernel.n == ref.getLong(3) && kernel.n == 1500, key)
    }
  }

  test("kernel draws equal sampleRows exactly") {
    for (model <- RandomModels.AllModels) {
      val s = RandomModels.draw(profiles("GRC"), model, 400, seed = 3L)
      val rows = RandomModels.sampleRows(profiles("GRC"), model, 400, seed = 3L)
      val fromDraw = (0 until s.nRecipes).flatMap(r =>
        (s.offsets(r) until s.offsets(r + 1)).map(k => (s"GRC@${model.name}", r.toLong, s.ings(k))))
      assert(rows == fromDraw, model.name)
    }
  }

  test("profiles from one grouped collect equal the per-region profile") {
    val regional = Experiments.regionalRecipes(p)
    val all = RandomModels.profiles(spark, regional, p.ingredients, Vector("GRC", "ITA", "KOR"))
    assert(all.keySet == Set("GRC", "ITA", "KOR"))
    for ((region, a) <- all) {
      val b = RandomModels.profile(spark, region, regional, p.ingredients)
      assert(a.region == b.region)
      assert(a.ingredients.toSeq == b.ingredients.toSeq, region)
      assert(a.categories.toSeq == b.categories.toSeq, region)
      assert(a.recipes.map(_.toSeq).toSeq == b.recipes.map(_.toSeq).toSeq, region)
      assert(a.recipes.length ==
        regional.filter(col("region") === region).select("recipe_id").distinct().count(), region)
    }
  }

  test("each stream scored alone gives the rows of the parallel foodPairing") {
    val regions = Vector("ITA", "KOR", "SCND")
    val rows = Experiments.foodPairing(p, nRand = 1200, seed = 9L, regions = regions)
    val regional = Experiments.regionalRecipes(p)
    val profs = RandomModels.profiles(spark, regional, p.ingredients, regions)
    val alone = for (region <- regions; model <- RandomModels.AllModels) yield {
      val nsReal = rows.find(_.region == region).get.nsReal
      val s = RandomModels.nullScore(p.universe, profs(region), model, 1200, seed = 9L)
      PairingRow(region, model.name, nsReal, s.ns, s.sigma, s.n, ZScore.z(nsReal, s.ns, s.sigma, s.n))
    }
    assert(rows == alone)
    assert(Experiments.foodPairing(p, nRand = 1200, seed = 9L, regions = regions) == rows)
  }

  test("real N_s^C over the requested regions equals the all-region Spark operator") {
    val all = FoodPairing.cuisineScores(
      FoodPairing.recipeScores(spark, Experiments.regionalRecipes(p), p.pairShared))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    for (r <- Experiments.foodPairing(p, nRand = 200, regions = Vector("AFR", "JPN")))
      assert(relClose(r.nsReal, all(r.region)), s"${r.region} ${r.nsReal} vs ${all(r.region)}")
  }

  test("kernel drops recipes with fewer than two ingredients") {
    val u = p.universe
    // a core ingredient and the two ingredients sharing most molecules with it
    val a = u.ingredients.find(_.isCore).get.id
    val Seq(b, c) = u.ingredients.map(_.id).filter(_ != a).sortBy(j => -u.sharedCount(a, j)).take(2)
    // recipes: {a, b, c}, {a}, {b, c}
    val s = FoodPairing.denseCuisineScore(u, Array(0, 3, 4, 6), Array(a, b, c, a, b, c))
    val r1 = (u.sharedCount(a, b) + u.sharedCount(a, c) + u.sharedCount(b, c)) / 3.0
    val r2 = u.sharedCount(b, c).toDouble
    assert(r1 > 0 && r2 > 0 && r1 != r2)
    assert(s.n == 2)
    assert(relClose(s.ns, (r1 + r2) / 2))
    assert(relClose(s.sigma, math.abs(r1 - r2) / 2))
  }

  test("a cuisine of empty-profile additives has sigma_rand = 0 and an undefined Z") {
    val ids = FlavorGen.ProfileFreeAdditives.toArray.map(p.universe.byName(_).id).sorted
    val prof = RandomModels.CuisineProfile(
      "ADD", ids, ids.map(_ => "Additive"), Array(2, 3, 4).map(n => Array.range(0, n)))
    for (model <- RandomModels.AllModels) {
      val s = RandomModels.nullScore(p.universe, prof, model, 500)
      assert(s.ns == 0.0 && s.sigma == 0.0 && s.n == 500, model.name)
      val z = ZScore.z(1.0, s.ns, s.sigma, s.n)
      assert(z.isNaN, model.name)
      assert(Experiments.fmtZ(z) == "undefined")
    }
    assert(Experiments.fmtZ(12.345) == "12.3")
  }
}
