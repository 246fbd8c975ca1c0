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
  * overlap matrix ([[nullScore]]); [[sampleRows]] lists the same draws as
  * rows for the Spark operator ([[FoodPairing.recipeScores]]), the
  * reference the driver kernel is tested against.
  */
object RandomModels {

  sealed abstract class Model(val name: String)
  case object RandomUniform     extends Model("random")
  case object Frequency         extends Model("frequency")
  case object Category          extends Model("category")
  case object FrequencyCategory extends Model("freq_category")
  val AllModels: Vector[Model] = Vector(RandomUniform, Frequency, Category, FrequencyCategory)

  /** Everything a sampler needs about one cuisine, extracted via Spark:
    * its ingredients sorted by id with their `categories` aligned, and its
    * `recipes` in recipe-id order, each as ascending indices into
    * `ingredients`. Everything else the models preserve is derived from the
    * recipes, so the profile does not depend on the order Spark returns rows
    * in and cannot disagree with itself.
    */
  final case class CuisineProfile(
      region: String,
      ingredients: Array[Int],
      categories: Array[String],
      recipes: Array[Array[Int]],
  ) {
    /** Uses of each ingredient across the recipes, aligned with `ingredients`. */
    def frequencies: Array[Long] = {
      val f = new Array[Long](ingredients.length)
      recipes.foreach(_.foreach(f(_) += 1))
      f
    }
    def recipeSizes: Array[Int] = recipes.map(_.length)
    def recipeCategories: Array[Array[String]] = recipes.map(_.map(categories))
  }

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
    val catOf = rows.map(r => r.getInt(2) -> r.getString(3)).toMap
    val ings = catOf.keys.toArray.sorted
    val index = ings.zipWithIndex.toMap
    val recipes = rows.groupBy(_.getLong(1)).toArray.sortBy(_._1)
      .map(_._2.map(r => index(r.getInt(2))).sorted)
    CuisineProfile(region, ings, ings.map(catOf), recipes)
  }

  /** A sampled cuisine in primitive arrays: recipe r is the distinct
    * ingredient ids `ings(offsets(r))` until `ings(offsets(r + 1))`, in
    * draw order.
    */
  final case class SampledCuisine(offsets: Array[Int], ings: Array[Int]) {
    def nRecipes: Int = offsets.length - 1
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

  /** Driver-side sampling: the one sampler behind [[sampleRows]] and
    * [[nullScore]]. Deterministic per (region, model, seed).
    */
  def draw(prof: CuisineProfile, model: Model, nRecipes: Int,
           seed: Long = 11L): SampledCuisine = {
    val rng = new Random(seed * 7919L + prof.region.hashCode * 31L + model.name.hashCode)
    val n = prof.ingredients.length
    val freq = prof.frequencies
    def cumulative(idx: Array[Int]): Array[Double] =
      idx.map(freq(_).toDouble).scanLeft(0.0)(_ + _).tail

    val allIdx = prof.ingredients.indices.toArray
    val cumFreq = cumulative(allIdx)
    val catNames = prof.categories.distinct
    val catIdx: Array[Array[Int]] = catNames.map(c => allIdx.filter(prof.categories(_) == c))
    val catCumFreq: Array[Array[Double]] = catIdx.map(cumulative)
    val catOf: Array[Int] = prof.categories.map(catNames.zipWithIndex.toMap)
    val excluded = new Array[Boolean](n)

    // Up to `tries` draws from `idx`, uniform when `cum` is null and
    // otherwise ∝ the frequencies accumulated in `cum`, until one is not
    // excluded; then the first free index of `idx`, or −1 if there is none.
    def pick(idx: Array[Int], cum: Array[Double], tries: Int): Int = {
      var t = 0
      while (t < tries) {
        val k =
          if (cum == null) rng.nextInt(idx.length)
          else {
            val x = rng.nextDouble() * cum(cum.length - 1)
            var lo = 0; var hi = cum.length - 1
            while (lo < hi) { val mid = (lo + hi) / 2; if (cum(mid) < x) lo = mid + 1 else hi = mid }
            lo
          }
        if (!excluded(idx(k))) return idx(k)
        t += 1
      }
      idx.find(!excluded(_)).getOrElse(-1)
    }
    val uniformTries = 10 * n + 1

    val offsets = new Array[Int](nRecipes + 1)
    val ings = new mutable.ArrayBuilder.ofInt
    // Profile indices drawn for the current recipe, cleared from `excluded` after it.
    val chosen = new Array[Int](n)
    var size = 0
    def take(i: Int): Unit = { excluded(i) = true; chosen(size) = i; size += 1 }
    var r = 0
    while (r < nRecipes) {
      size = 0
      val template = prof.recipes(rng.nextInt(prof.recipes.length))
      model match {
        case RandomUniform =>
          while (size < math.min(template.length, n)) take(pick(allIdx, null, uniformTries))
        case Frequency =>
          while (size < math.min(template.length, n)) take(pick(allIdx, cumFreq, 200))
        case Category | FrequencyCategory =>
          for (i <- template) {
            val cat = catOf(i)
            val p = pick(catIdx(cat), if (model == Category) null else catCumFreq(cat), 200)
            // Category exhausted within this recipe → fall back to a
            // uniform draw over the full set (keeps the size preserved).
            take(if (p >= 0) p else pick(allIdx, null, uniformTries))
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
