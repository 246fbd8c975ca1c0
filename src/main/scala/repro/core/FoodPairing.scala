package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.flavor.FlavorUniverse

/** Food pairing scores (Methodology IV.B).
  *
  * For a recipe R with n ingredients,
  *   N_s^R = 2/(n(n−1)) · Σ_{i<j∈R} |F_i ∩ F_j|,
  * the mean shared count over its m = n(n−1)/2 ingredient pairs, and a
  * cuisine's score N_s^C is the mean of N_s^R over its recipes.
  *
  * All computations are DataFrame aggregations: within-recipe pair
  * explosion via a self-join, overlap lookup via a (broadcast) left join
  * against the pairwise shared-molecule table ([[sharedPairs]]), then one
  * per-recipe aggregation ([[recipeTotals]], shared with
  * [[Contribution.chi]]) and a per-cuisine one.
  *
  * [[denseCuisineScore]] is the driver kernel of the same two steps for
  * cuisines already held on the driver (the Fig-4 null models); the Spark
  * operator is the reference it is tested against.
  */
object FoodPairing {

  /** Within-recipe unordered ingredient pairs.
    *
    * @param recipes (region, recipe_id, ing_id) — one row per slot; rows
    *                with duplicate ingredients in a recipe are collapsed
    *                (a recipe is a *set* of ingredients, Materials III.A)
    * @return (region, recipe_id, ing_a, ing_b) with ing_a < ing_b
    */
  def recipePairs(recipes: DataFrame): DataFrame = {
    val distinctRows = recipes.select("region", "recipe_id", "ing_id").distinct()
    val a = distinctRows.withColumnRenamed("ing_id", "ing_a")
    val b = distinctRows.withColumnRenamed("ing_id", "ing_b")
    a.join(b, Seq("region", "recipe_id"))
      .filter(col("ing_a") < col("ing_b"))
  }

  /** Within-recipe pairs with their shared-molecule count.
    *
    * @param pairShared (ing_a, ing_b, shared) — pairs absent ⇒ 0 shared
    * @return (region, recipe_id, ing_a, ing_b, shared)
    */
  def sharedPairs(recipes: DataFrame, pairShared: DataFrame): DataFrame =
    recipePairs(recipes)
      .join(broadcast(pairShared), Seq("ing_a", "ing_b"), "left")
      .na.fill(0, Seq("shared"))

  /** Per-recipe totals over [[sharedPairs]]: the pair count m = n(n−1)/2,
    * the shared sum S and N_s^R = S/m, the mean shared count over the
    * recipe's pairs. Recipes with n < 2 have no pairs, so they have no row.
    *
    * @return (region, recipe_id, m, shared_sum, score)
    */
  def recipeTotals(pairs: DataFrame): DataFrame =
    pairs.groupBy("region", "recipe_id")
      .agg(count(lit(1)).as("m"), sum("shared").as("shared_sum"))
      .withColumn("score", col("shared_sum") / col("m"))

  /** Per-recipe food pairing score N_s^R.
    *
    * @return (region, recipe_id, n, score); recipes with n < 2 are dropped
    *         (the score is undefined for a single ingredient)
    */
  def recipeScores(spark: SparkSession, recipes: DataFrame, pairShared: DataFrame): DataFrame =
    recipeTotals(sharedPairs(recipes, pairShared)).select(
      col("region"), col("recipe_id"),
      // n from m = n(n−1)/2; 1 + 8m = (2n−1)² is a perfect square, so sqrt is exact.
      ((lit(1) + sqrt(lit(1) + lit(8) * col("m"))) / 2).cast("int").as("n"),
      col("score"),
    )

  /** Cuisine-level aggregation: N_s^C, recipe-score stddev and count. */
  def cuisineScores(recipeScoresDf: DataFrame): DataFrame =
    recipeScoresDf
      .groupBy("region")
      .agg(
        avg("score").as("ns"),
        stddev_pop("score").as("sigma"),
        count(lit(1)).as("n_recipes"),
      )

  /** A cuisine's N_s^C, the population σ of its recipe scores, and the
    * number of recipes scored.
    */
  final case class CuisineScore(ns: Double, sigma: Double, n: Long)

  /** [[cuisineScores]] of [[recipeScores]] on the driver, for one cuisine
    * held as primitive arrays: recipe r is the distinct ingredient ids
    * `ings(offsets(r))` until `ings(offsets(r + 1))`. Each pair's shared
    * count is read from the dense `u.overlap` matrix, and N_s^R is the mean
    * over the recipe's n(n−1)/2 pairs, as in [[recipeTotals]]. Recipes with
    * n < 2 are dropped, as in [[recipeScores]]; σ is computed in a second
    * pass over the recipe scores. With no recipe left, N_s^C and σ are NaN.
    */
  def denseCuisineScore(u: FlavorUniverse, offsets: Array[Int], ings: Array[Int]): CuisineScore = {
    val overlap = u.overlap
    val size = u.size
    val scores = new Array[Double](offsets.length - 1)
    var kept = 0
    var sum = 0.0
    var r = 0
    while (r < scores.length) {
      val from = offsets(r); val until = offsets(r + 1)
      val n = until - from
      if (n >= 2) {
        var shared = 0L
        var i = from
        while (i < until) {
          val row = ings(i) * size
          var j = i + 1
          while (j < until) { shared += overlap(row + ings(j)); j += 1 }
          i += 1
        }
        val score = shared.toDouble / (n.toLong * (n - 1) / 2)
        scores(kept) = score; sum += score; kept += 1
      }
      r += 1
    }
    val mean = sum / kept
    var sq = 0.0
    var k = 0
    while (k < kept) { val d = scores(k) - mean; sq += d * d; k += 1 }
    CuisineScore(mean, math.sqrt(sq / kept), kept.toLong)
  }
}
