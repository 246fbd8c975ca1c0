package repro.core

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.flavor.FlavorUniverse

/** The four randomized-cuisine null models (Methodology IV.B).
  *
  * Every model preserves the cuisine's exact ingredient set and resamples
  * recipe sizes from the cuisine's empirical size distribution:
  *
  *  - RandomUniform:  ingredients uniform over the cuisine's set;
  *  - Frequency:      ingredients ∝ their frequency of use in the cuisine;
  *  - Category:       a real recipe's category composition is preserved,
  *                    ingredients drawn uniformly within each category;
  *  - FrequencyCategory: category composition preserved, ingredients drawn
  *                    ∝ frequency within each category.
  *
  * Sampling runs on the driver (seeded, deterministic) from cuisine
  * statistics collected via DataFrame aggregations, into primitive arrays
  * ([[draw]]). Fig 4 scores those arrays on the driver against the dense
  * overlap matrix ([[nullScore]]); [[sample]] wraps the same draws into a
  * DataFrame for the Spark operator ([[FoodPairing.recipeScores]]), the
  * reference the driver kernel is tested against.
  */
object RandomModels {

  sealed abstract class Model(val name: String)
  case object RandomUniform     extends Model("random")
  case object Frequency         extends Model("frequency")
  case object Category          extends Model("category")
  case object FrequencyCategory extends Model("freq_category")
  val AllModels: Vector[Model] = Vector(RandomUniform, Frequency, Category, FrequencyCategory)

  /** Everything a sampler needs about one cuisine, extracted via Spark.
    * Arrays `ingredients`, `frequencies`, `categories` are aligned and sorted
    * by ingredient id; recipes are in recipe-id order, each recipe's
    * categories in ingredient-id order, so the profile does not depend on
    * the order Spark returns rows in.
    */
  final case class CuisineProfile(
      region: String,
      ingredients: Array[Int],
      frequencies: Array[Long],
      categories: Array[String],
      recipeSizes: Array[Int],
      recipeCategories: Array[Array[String]],
  )

  /** Collect the per-cuisine statistics the models must preserve, for every
    * requested region, from one grouped collect.
    *
    * @param recipes     (region, recipe_id, ing_id), any number of regions
    * @param ingredients (ing_id, category, ...) lookup table
    */
  def profiles(spark: SparkSession, recipes: DataFrame, ingredients: DataFrame,
               regions: Seq[String]): Map[String, CuisineProfile] = {
    val byRegion = recipes.filter(col("region").isin(regions: _*))
      .select("region", "recipe_id", "ing_id").distinct()
      .join(broadcast(ingredients.select("ing_id", "category")), "ing_id")
      .select("region", "recipe_id", "ing_id", "category")
      .collect()
      .groupBy(_.getString(0))
    regions.map(region => region -> profileOf(region, byRegion.getOrElse(region, Array.empty))).toMap
  }

  /** One region's profile; see [[profiles]]. */
  def profile(spark: SparkSession, region: String, recipes: DataFrame,
              ingredients: DataFrame): CuisineProfile =
    profiles(spark, recipes, ingredients, Seq(region))(region)

  /** @param rows (region, recipe_id, ing_id, category), distinct */
  private def profileOf(region: String, rows: Array[Row]): CuisineProfile = {
    val freq = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    val catOf = mutable.HashMap.empty[Int, String]
    val byRecipe = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Int]]
    rows.foreach { r =>
      val rid = r.getLong(1); val ing = r.getInt(2)
      freq(ing) += 1
      catOf(ing) = r.getString(3)
      byRecipe.getOrElseUpdate(rid, mutable.ArrayBuffer.empty) += ing
    }
    val ings = freq.keys.toArray.sorted
    val recipesArr = byRecipe.toArray.sortBy(_._1).map(_._2.toArray.sorted)
    CuisineProfile(
      region,
      ings,
      ings.map(freq),
      ings.map(catOf),
      recipesArr.map(_.length),
      recipesArr.map(_.map(catOf)),
    )
  }

  /** A sampled cuisine in primitive arrays: recipe r is the distinct
    * ingredient ids `ings(offsets(r))` until `ings(offsets(r + 1))`, in
    * draw order.
    */
  final case class SampledCuisine(offsets: Array[Int], ings: Array[Int]) {
    def nRecipes: Int = offsets.length - 1
  }

  /** Generate `nRecipes` random recipes under `model` and return them as a
    * (region, recipe_id, ing_id) DataFrame with region = "region@model".
    */
  def sample(spark: SparkSession, prof: CuisineProfile, model: Model,
             nRecipes: Int, seed: Long = 11L): DataFrame = {
    import spark.implicits._
    val rows = sampleRows(prof, model, nRecipes, seed)
    rows.toDF("region", "recipe_id", "ing_id")
  }

  /** The draws of [[draw]] as (region@model, recipe_id, ing_id) rows. */
  def sampleRows(prof: CuisineProfile, model: Model, nRecipes: Int,
                 seed: Long = 11L): Vector[(String, Long, Int)] = {
    val s = draw(prof, model, nRecipes, seed)
    val label = s"${prof.region}@${model.name}"
    (0 until s.nRecipes).iterator.flatMap { r =>
      (s.offsets(r) until s.offsets(r + 1)).iterator.map(k => (label, r.toLong, s.ings(k)))
    }.toVector
  }

  /** Fig-4 kernel for one (region, model) stream: N_s^rand, σ_rand and the
    * realised nRand of `nRecipes` recipes drawn as in [[draw]], scored on the
    * driver by [[FoodPairing.denseCuisineScore]].
    */
  def nullScore(u: FlavorUniverse, prof: CuisineProfile, model: Model, nRecipes: Int,
                seed: Long = 11L): FoodPairing.CuisineScore = {
    val s = draw(prof, model, nRecipes, seed)
    FoodPairing.denseCuisineScore(u, s.offsets, s.ings)
  }

  /** Driver-side sampling: the one sampler behind [[sampleRows]],
    * [[sample]] and [[nullScore]]. Deterministic per (region, model, seed).
    */
  def draw(prof: CuisineProfile, model: Model, nRecipes: Int,
           seed: Long = 11L): SampledCuisine = {
    val rng = new Random(seed * 7919L + prof.region.hashCode * 31L + model.name.hashCode)
    val n = prof.ingredients.length

    val cumFreq = prof.frequencies.map(_.toDouble).scanLeft(0.0)(_ + _).tail
    val catNames = prof.categories.distinct
    val catIdx: Array[Array[Int]] =
      catNames.map(c => prof.ingredients.indices.filter(prof.categories(_) == c).toArray)
    val catCumFreq: Array[Array[Double]] =
      catIdx.map(idx => idx.map(prof.frequencies(_).toDouble).scanLeft(0.0)(_ + _).tail)
    val templateCats: Array[Array[Int]] = {
      val catNo = catNames.zipWithIndex.toMap
      prof.recipeCategories.map(_.map(catNo))
    }
    val allIdx = prof.ingredients.indices.toArray
    val excluded = new Array[Boolean](n)

    def firstFree(idx: Array[Int]): Int = {
      var k = 0
      while (k < idx.length && excluded(idx(k))) k += 1
      if (k < idx.length) idx(k) else -1
    }
    def drawUniform(): Int = {
      var i = rng.nextInt(n)
      var guard = 0
      while (excluded(i) && guard < 10 * n) { i = rng.nextInt(n); guard += 1 }
      if (excluded(i)) firstFree(allIdx) else i
    }
    def drawWeighted(cum: Array[Double], idx: Array[Int]): Int = {
      val total = cum(cum.length - 1)
      var guard = 0
      while (guard < 200) {
        val t = rng.nextDouble() * total
        var lo = 0; var hi = cum.length - 1
        while (lo < hi) { val mid = (lo + hi) / 2; if (cum(mid) < t) lo = mid + 1 else hi = mid }
        val pick = idx(lo)
        if (!excluded(pick)) return pick
        guard += 1
      }
      firstFree(idx)
    }
    def drawUniformIn(idx: Array[Int]): Int = {
      var guard = 0
      while (guard < 200) {
        val pick = idx(rng.nextInt(idx.length))
        if (!excluded(pick)) return pick
        guard += 1
      }
      firstFree(idx)
    }

    val offsets = new Array[Int](nRecipes + 1)
    val ings = new mutable.ArrayBuilder.ofInt
    // Profile indices drawn for the current recipe, cleared from `excluded` after it.
    val chosen = new Array[Int](n)
    var size = 0
    def take(i: Int): Unit = { excluded(i) = true; chosen(size) = i; size += 1 }
    var r = 0
    while (r < nRecipes) {
      size = 0
      val template = rng.nextInt(prof.recipeSizes.length)
      model match {
        case RandomUniform | Frequency =>
          val target = math.min(prof.recipeSizes(template), n)
          while (size < target)
            take(if (model == RandomUniform) drawUniform() else drawWeighted(cumFreq, allIdx))
        case Category | FrequencyCategory =>
          for (cat <- templateCats(template)) {
            val idx = catIdx(cat)
            val pick =
              if (model == Category) drawUniformIn(idx)
              else drawWeighted(catCumFreq(cat), idx)
            // Category exhausted within this recipe → fall back to a
            // uniform draw over the full set (keeps the size preserved).
            take(if (pick >= 0) pick else drawUniform())
          }
      }
      var k = 0
      while (k < size) { excluded(chosen(k)) = false; ings += prof.ingredients(chosen(k)); k += 1 }
      r += 1
      offsets(r) = offsets(r - 1) + size
    }
    SampledCuisine(offsets, ings.result())
  }
}
