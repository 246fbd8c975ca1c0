package perfbench

import scala.collection.mutable

import repro.flavor.FlavorUniverse

/** Brute-force references, computed without Spark, that the workloads'
  * outputs are checked against.
  * Recipes are ingredient sets; a recipe's score is the mean shared-molecule
  * count over its ingredient pairs, read from `FlavorUniverse.sharedCount`.
  */
object Reference {

  /** Mean, population standard deviation and count of recipe scores, over
    * recipes with at least two distinct ingredients.
    */
  final case class ScoreStats(mean: Double, sigma: Double, n: Long)

  def recipeScore(u: FlavorUniverse, ings: Array[Int]): Double = {
    var shared = 0L
    var i = 0
    while (i < ings.length) {
      var j = i + 1
      while (j < ings.length) { shared += u.sharedCount(ings(i), ings(j)); j += 1 }
      i += 1
    }
    2.0 * shared / (ings.length.toLong * (ings.length - 1))
  }

  def scoreStats(u: FlavorUniverse, recipes: Iterable[Array[Int]]): ScoreStats = {
    val scores = recipes.iterator.filter(_.length >= 2).map(recipeScore(u, _)).toArray
    val mean = scores.sum / scores.length
    val variance = scores.map(s => (s - mean) * (s - mean)).sum / scores.length
    ScoreStats(mean, math.sqrt(variance), scores.length.toLong)
  }

  /** Group (recipe id, ingredient) rows into distinct ingredient sets. */
  def recipeSets(rows: Iterable[(Long, Int)]): Vector[Array[Int]] = {
    val m = mutable.LinkedHashMap.empty[Long, mutable.LinkedHashSet[Int]]
    rows.foreach { case (rid, ing) => m.getOrElseUpdate(rid, mutable.LinkedHashSet.empty) += ing }
    m.valuesIterator.map(_.toArray).toVector
  }

  /** χ of one ingredient by removing it from every recipe and rescoring. */
  def chi(u: FlavorUniverse, recipes: Vector[Array[Int]], ing: Int): Double = {
    val before = scoreStats(u, recipes).mean
    val after = scoreStats(u, recipes.map(_.filter(_ != ing))).mean
    100.0 * (after - before) / before
  }

  def relClose(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    a == b || math.abs(a - b) <= tol * math.max(math.abs(a), math.abs(b))
}

/** Output checks of one run; their counts become `attempted` and `failed`. */
final class Checks {
  private val failures = mutable.ArrayBuffer.empty[String]
  private var attempted = 0

  def apply(name: String, ok: Boolean, detail: => String = ""): Unit = {
    attempted += 1
    if (!ok) failures += s"$name $detail".trim
  }

  def count: Int = attempted
  def failed: Vector[String] = failures.toVector
}
