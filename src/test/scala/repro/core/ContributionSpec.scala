package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestPipeline}
import repro.exp.Experiments

/** Ingredient contribution χ_i (Methodology IV.C): hand-computed example
  * plus a brute-force cross-check (actually removing the ingredient and
  * re-scoring the cuisine with the production scorer).
  */
class ContributionSpec extends AnyFunSuite with SparkSpec {

  import spark.implicits._

  private def tinyShared = Seq((1, 2, 4), (2, 3, 2)).toDF("ing_a", "ing_b", "shared")
  private def tinyRecipes = Seq(
    ("X", 1L, 1), ("X", 1L, 2), ("X", 1L, 3), // score 2
    ("X", 2L, 1), ("X", 2L, 2),               // score 4
    ("X", 3L, 1), ("X", 3L, 3),               // score 0
  ).toDF("region", "recipe_id", "ing_id")     // N_s = 2

  private lazy val tinyChi = Contribution.chi(spark, tinyRecipes, tinyShared)
    .collect().map(r => r.getInt(1) -> (r.getDouble(2), r.getDouble(3), r.getLong(4))).toMap

  test("removing an overlap-free ingredient raises the cuisine score") {
    // Remove 3: R1 → {1,2} score 4, R2 stays 4, R3 drops ⇒ N_s = 4, χ = +100%.
    val (chi, nsWithout, _) = tinyChi(3)
    assert(math.abs(nsWithout - 4.0) < 1e-12)
    assert(math.abs(chi - 100.0) < 1e-9)
  }

  test("removing the overlap-driving ingredient lowers the cuisine score") {
    // Remove 2: R1 → {1,3} score 0, R2 drops, R3 stays 0 ⇒ N_s = 0, χ = −100%.
    val (chi, nsWithout, _) = tinyChi(2)
    assert(math.abs(nsWithout - 0.0) < 1e-12)
    assert(math.abs(chi - (-100.0)) < 1e-9)
  }

  test("a neutral ingredient yields zero contribution") {
    // Remove 1: R1 → {2,3} score 2, R2 and R3 drop ⇒ N_s = 2, χ = 0.
    val (chi, nsWithout, _) = tinyChi(1)
    assert(math.abs(nsWithout - 2.0) < 1e-12)
    assert(math.abs(chi) < 1e-9)
  }

  test("freq column counts the recipes containing the ingredient") {
    assert(tinyChi(1)._3 == 3)
    assert(tinyChi(2)._3 == 2)
    assert(tinyChi(3)._3 == 2)
  }

  test("chi emits one row per (region, ingredient)") {
    assert(Contribution.chi(spark, tinyRecipes, tinyShared).count() == 3)
  }

  test("chi matches brute-force removal on pipeline data") {
    val p = TestPipeline.get(spark)
    val recipes = p.recipes.filter(col("region") === "KOR").cache()
    val chi = Contribution.chi(spark, recipes, p.pairShared)
      .collect().map(r => r.getInt(1) -> r.getDouble(2)).toMap

    val ns = FoodPairing.cuisineScores(
      FoodPairing.recipeScores(spark, recipes, p.pairShared))
      .collect()(0).getDouble(1)

    // Brute force: physically remove the ingredient and re-score.
    val sampleIngs = chi.keys.toVector.sorted.take(5) ++
      chi.toVector.sortBy(_._2).take(2).map(_._1) // include extreme cases
    for (ing <- sampleIngs.distinct) {
      val without = recipes.filter(col("ing_id") =!= ing)
      val nsWithout = FoodPairing.cuisineScores(
        FoodPairing.recipeScores(spark, without, p.pairShared))
        .collect()(0).getDouble(1)
      val expected = 100.0 * (nsWithout - ns) / ns
      assert(math.abs(chi(ing) - expected) < 1e-6,
             f"ingredient $ing: chi=${chi(ing)}%.6f brute=$expected%.6f")
    }
  }

  test("topContributors ranks by sign-adjusted strength") {
    val signs = Seq(("X", 1)).toDF("region", "sign")
    val top = Contribution.topContributors(tinyChi2Df, signs, k = 2)
      .collect().map(r => (r.getInt(1), r.getInt(2))).toMap // rank -> ing
    // Positive region: strongest contributor = most negative chi (ing 2).
    assert(top(1) == 2)
    assert(top(2) == 1)
  }

  test("topContributors flips ordering for negative regions") {
    val signs = Seq(("X", -1)).toDF("region", "sign")
    val top = Contribution.topContributors(tinyChi2Df, signs, k = 2)
      .collect().map(r => (r.getInt(1), r.getInt(2))).toMap
    // Negative region: strongest contributor = most positive chi (ing 3).
    assert(top(1) == 3)
  }

  test("topContributors limits to k rows per region") {
    val signs = Seq(("X", 1)).toDF("region", "sign")
    assert(Contribution.topContributors(tinyChi2Df, signs, k = 1).count() == 1)
  }

  private def tinyChi2Df =
    Contribution.chi(spark, tinyRecipes, tinyShared)

  // Degenerate regions under the same overlaps: Z's only recipe {1,3} shares
  // nothing (N_s^C = 0); E's only recipe {1,2} empties the cuisine when
  // either ingredient is removed.
  private def zeroNs = Seq(("Z", 20L, 1), ("Z", 20L, 3)).toDF("region", "recipe_id", "ing_id")
  private def emptied = Seq(("E", 30L, 1), ("E", 30L, 2)).toDF("region", "recipe_id", "ing_id")

  /** (region, ing) → (chi, ns_without), None where null. */
  private def chiOf(recipes: DataFrame): Map[(String, Int), (Option[Double], Option[Double])] =
    Contribution.chi(spark, recipes, tinyShared).collect().map { r =>
      def opt(i: Int) = if (r.isNullAt(i)) None else Some(r.getDouble(i))
      (r.getString(0), r.getInt(1)) -> (opt(2), opt(3))
    }.toMap

  test("chi is undefined, not an error, when the cuisine's N_s^C is 0") {
    val got = chiOf(zeroNs)
    assert(got == Map(("Z", 1) -> (None, None), ("Z", 3) -> (None, None)))
  }

  test("chi is undefined, not an error, when removing the ingredient empties the cuisine") {
    val got = chiOf(emptied)
    assert(got == Map(("E", 1) -> (None, None), ("E", 2) -> (None, None)))
  }

  test("degenerate regions leave a healthy region's chi unchanged") {
    val got = chiOf(tinyRecipes.unionByName(zeroNs).unionByName(emptied))
    assert(got.filter(_._1._1 == "X") ==
      tinyChi.map { case (ing, (chi, nsWithout, _)) => ("X", ing) -> (Some(chi), Some(nsWithout)) })
    assert(got.filter(_._1._1 != "X").values.forall(_ == ((None, None))))
  }

  test("topContributors ranks an undefined chi after every defined one") {
    // {1,2} scores 4, {1,3} scores 0: removing 2 gives χ = −100, removing 3
    // gives +100, removing 1 empties the cuisine.
    val recipes = Seq(("V", 1L, 1), ("V", 1L, 2), ("V", 2L, 1), ("V", 2L, 3))
      .toDF("region", "recipe_id", "ing_id")
    val chiDf = Contribution.chi(spark, recipes, tinyShared)
    for ((sign, order) <- Seq(1 -> Seq(2, 3, 1), -1 -> Seq(3, 2, 1))) {
      val ranked = Contribution.topContributors(chiDf, Seq(("V", sign)).toDF("region", "sign"), k = 3)
        .collect().map(r => r.getInt(1) -> r.getInt(2)).sortBy(_._1).map(_._2).toSeq
      assert(ranked == order, s"sign $sign")
    }
  }

  test("an undefined chi is NaN in ContributorRow and prints as undefined") {
    val names = Seq((1, "one"), (2, "two"), (3, "three")).toDF("ing_id", "name")
    val p = TestPipeline.get(spark).copy(
      recipes = zeroNs.unionByName(emptied), ingredients = names, pairShared = tinyShared)
    val signs = Map("Z" -> 1, "E" -> -1)
    val rows = Experiments.topContributors(p, signs)
    assert(rows.size == 4 && rows.forall(_.chi.isNaN))
    val table = Experiments.fmtContributors(rows, signs)
    assert(table.split('\n').count(_.contains("undefined")) == 4)
    assert(!table.contains("NaN"))
  }
}
