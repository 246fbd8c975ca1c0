package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.RandomModels._

/** Golden draws of the sampler on a small hand-built profile: a change to
  * `draw` that alters any model's RNG use or fallback shows up here, without
  * Spark.
  */
class RandomModelsDrawSpec extends AnyFunSuite {

  // Categories are not grouped by id, so category order is the first-seen
  // order over the sorted ingredients. Recipe 3 lists the only Herb twice:
  // its second Herb slot finds the category exhausted, which a profile built
  // from distinct rows never does, so the category models fall back to a
  // uniform draw over the whole set there.
  private val prof = CuisineProfile(
    "GLD",
    ingredients = Array(3, 5, 8, 13, 21, 34),
    categories = Array("Dairy", "Spice", "Dairy", "Herb", "Spice", "Dairy"),
    recipes = Array(Array(0, 2, 5), Array(1, 3), Array(0, 1, 4), Array(3, 3, 4), Array(0, 2)),
  )

  // draw(prof, model, 12, seed = 5): model, offsets, ingredient ids.
  private val golden: Seq[(Model, Seq[Int], Seq[Int])] = Seq(
    (RandomUniform,
      Seq(0, 2, 5, 7, 10, 13, 16, 19, 22, 25, 28, 30, 32),
      Seq(34, 3, 34, 8, 21, 34, 21, 34, 13, 3, 34, 21, 8, 13, 8, 3,
          34, 8, 3, 34, 3, 13, 5, 13, 8, 3, 8, 13, 3, 34, 21, 8)),
    (Frequency,
      Seq(0, 3, 6, 8, 10, 12, 15, 18, 20, 23, 26, 28, 31),
      Seq(8, 13, 3, 8, 21, 3, 34, 13, 3, 13, 13, 5, 3, 5, 34, 34,
          3, 13, 5, 13, 34, 13, 21, 21, 3, 5, 21, 3, 21, 8, 13)),
    (Category,
      Seq(0, 2, 4, 7, 9, 12, 14, 17, 20, 22, 24, 27, 30),
      Seq(21, 13, 8, 34, 13, 8, 21, 8, 3, 34, 5, 21, 8, 3, 3,
          21, 5, 8, 34, 3, 21, 13, 5, 13, 8, 21, 5, 8, 21, 5)),
    (FrequencyCategory,
      Seq(0, 2, 4, 6, 9, 12, 15, 18, 21, 24, 26, 28, 30),
      Seq(3, 8, 5, 13, 21, 13, 3, 5, 21, 8, 5, 21, 3, 21, 5,
          8, 3, 34, 13, 3, 21, 8, 34, 3, 34, 8, 21, 13, 3, 34)),
  )

  test("derived profile members follow the recipes") {
    assert(prof.frequencies.toSeq == Seq(3L, 2L, 2L, 3L, 2L, 1L))
    assert(prof.recipeSizes.toSeq == Seq(3, 2, 3, 3, 2))
    assert(prof.recipeCategories(3).toSeq == Seq("Herb", "Herb", "Spice"))
  }

  test("draw reproduces the golden draws of every model at a fixed seed") {
    assert(golden.map(_._1) == AllModels)
    for ((model, offsets, ings) <- golden) {
      val s = draw(prof, model, 12, seed = 5L)
      assert(s.offsets.toSeq == offsets, model.name)
      assert(s.ings.toSeq == ings, model.name)
    }
  }

  test("an exhausted category falls back to the whole ingredient set") {
    for (model <- Seq(Category, FrequencyCategory)) {
      val s = draw(prof, model, 12, seed = 5L)
      val recipes = (0 until s.nRecipes).map(r => s.ings.slice(s.offsets(r), s.offsets(r + 1)).toSeq)
      // Only recipe 3's template starts with a Herb (13); its second slot is
      // not a Herb, because the only Herb is already taken.
      val fallback = recipes.filter(r => r.head == 13 && r.length == 3)
      assert(fallback.nonEmpty, model.name)
      assert(fallback.forall(r => r.distinct == r), model.name)
    }
  }
}
