package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.flavor.{FlavorUniverse, IngredientDef}

/** Properties of N_s and χ on small random corpora: duplicate slots,
  * single-ingredient recipes, pairs sharing no molecule (absent from the
  * pair table, including empty profiles) and several regions. The Spark
  * operator is checked against the driver kernel, and χ against removing
  * the ingredient and re-scoring with the kernel.
  */
class PairingPropertiesSpec extends AnyFunSuite with SparkSpec {

  import PairingPropertiesSpec.Corpus
  import spark.implicits._

  private val genCorpus: Gen[Corpus] = for {
    k <- Gen.choose(3, 7)
    profiles <- Gen.listOfN(k, Gen.containerOf[Set, Int](Gen.choose(0, 5)))
    recipes <- Gen.nonEmptyListOf(for {
      region <- Gen.oneOf("A", "B", "C")
      size <- Gen.choose(1, 5)
      slots <- Gen.listOfN(size, Gen.choose(0, k - 1))
    } yield (region, slots.toVector)).map(_.take(8))
  } yield Corpus(profiles.toVector,
                 recipes.toVector.zipWithIndex.map { case ((g, s), i) => (g, i.toLong, s) })

  /** The kernel's N_s^C over recipes given as slot lists. */
  private def dense(u: FlavorUniverse, recipes: Seq[Vector[Int]]): FoodPairing.CuisineScore = {
    val sets = recipes.map(_.distinct)
    FoodPairing.denseCuisineScore(u, sets.scanLeft(0)(_ + _.size).toArray, sets.flatten.toArray)
  }

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  private def check(c: Corpus): Unit = {
    val u = c.universe
    val recipes = c.recipes.flatMap { case (g, id, slots) => slots.map(i => (g, id, i)) }
      .toDF("region", "recipe_id", "ing_id")
    val pairShared = (for (a <- 0 until u.size; b <- a + 1 until u.size if u.sharedCount(a, b) > 0)
      yield (a, b, u.sharedCount(a, b))).toDF("ing_a", "ing_b", "shared")

    val cuisine = FoodPairing.cuisineScores(FoodPairing.recipeScores(spark, recipes, pairShared))
      .collect().map(r => r.getString(0) -> (r.getDouble(1), r.getDouble(2), r.getLong(3))).toMap
    val chi = Contribution.chi(spark, recipes, pairShared).collect().map { r =>
      (r.getString(0), r.getInt(1)) -> (if (r.isNullAt(2)) None else Some(r.getDouble(2)))
    }.toMap

    for (region <- c.regions) {
      val slots = c.slotsIn(region)
      val kernel = dense(u, slots)
      cuisine.get(region) match {
        case None => assert(kernel.n == 0, region)
        case Some((ns, sigma, n)) =>
          assert(close(ns, kernel.ns) && close(sigma, kernel.sigma) && n == kernel.n,
                 s"$region: Spark ($ns, $sigma, $n) vs kernel $kernel")
      }
      // χ has a row for every ingredient of a recipe with at least one pair.
      val paired = slots.map(_.distinct).filter(_.size >= 2).flatten.toSet
      assert(chi.keySet.filter(_._1 == region).map(_._2) == paired, region)
      for (ing <- paired) {
        val without = dense(u, slots.map(_.filter(_ != ing))).ns
        val brute = 100.0 * (without - kernel.ns) / kernel.ns
        chi((region, ing)) match {
          case Some(x) => assert(close(x, brute), s"$region/$ing: chi $x vs brute force $brute")
          case None => assert(!java.lang.Double.isFinite(brute), s"$region/$ing: brute force $brute")
        }
      }
    }
  }

  test("Spark N_s^C equals the kernel and chi equals brute-force removal on random corpora") {
    val prop = Prop.forAll(genCorpus) { c => check(c); true }
    val res = Test.check(
      Test.Parameters.default.withMinSuccessfulTests(20).withInitialSeed(Seed(20180416L)), prop)
    assert(res.passed, res.status.toString)
  }
}

object PairingPropertiesSpec {
  /** Ingredient i has profile `profiles(i)`; a recipe is (region, id, slots). */
  final case class Corpus(profiles: Vector[Set[Int]],
                          recipes: Vector[(String, Long, Vector[Int])]) {
    val universe: FlavorUniverse = FlavorUniverse(profiles.zipWithIndex.map { case (prof, i) =>
      IngredientDef(i, s"i$i", "Spice", isCompound = false, Vector.empty, prof, isCore = false)
    })
    def regions: Vector[String] = recipes.map(_._1).distinct
    def slotsIn(region: String): Vector[Vector[Int]] = recipes.filter(_._1 == region).map(_._3)
  }
}
