package repro.ingest

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.flavor.{FlavorGen, FlavorUniverse}

/** Ingredient aliasing (Methodology IV.A): maps raw recipe phrases to
  * canonical ingredient ids via normalization + n-gram (≤ 6) lookup.
  *
  * The dictionary contains every canonical ingredient name and every
  * registered synonym/spelling variant, keyed by its *normalized* token
  * sequence; the 29 noise entities map to a sentinel that is reported as
  * unmatched (the paper removed them from the ingredient list).
  * Matching is leftmost-longest: at each position try the longest n-gram
  * first, consuming matched tokens.
  */
object Aliaser {

  val MaxNgram = 6
  val NoiseId: Int = -2
  val UnmatchedId: Int = -1

  /** Build the normalized-name → id dictionary for a universe. */
  def dictionary(u: FlavorUniverse): Map[String, Int] = {
    val entries = collection.mutable.Map.empty[String, Int]
    def put(key: Vector[String], id: Int, what: String): Unit = {
      val k = key.mkString(" ")
      require(k.nonEmpty, s"$what normalizes to nothing")
      entries.get(k) match {
        case Some(existing) if existing != id =>
          throw new IllegalStateException(s"dictionary collision on '$k': $existing vs $id")
        case _ => entries(k) = id
      }
    }
    for (ing <- u.ingredients) put(TextNorm.normalize(ing.name), ing.id, s"name '${ing.name}'")
    for ((surface, canonical) <- FlavorGen.Synonyms)
      put(TextNorm.normalize(surface), u.byName(canonical).id, s"synonym '$surface'")
    for (noise <- FlavorGen.NoiseEntities)
      put(TextNorm.normalize(noise), NoiseId, s"noise '$noise'")
    entries.toMap
  }

  /** Alias one already-normalized token sequence. Returns the id of the
    * first (leftmost-longest) dictionary hit, [[NoiseId]] if the hit is a
    * noise entity, or [[UnmatchedId]] if nothing matches.
    */
  def aliasTokens(dict: Map[String, Int], tokens: Vector[String]): Int = {
    var pos = 0
    while (pos < tokens.length) {
      var len = math.min(MaxNgram, tokens.length - pos)
      while (len >= 1) {
        val key = tokens.slice(pos, pos + len).mkString(" ")
        dict.get(key) match {
          case Some(id) => return id
          case None     => len -= 1
        }
      }
      pos += 1
    }
    UnmatchedId
  }

  /** Alias a raw phrase. */
  def aliasPhrase(dict: Map[String, Int], phrase: String): Int =
    aliasTokens(dict, TextNorm.normalize(phrase))

  /** Spark transform: input (region, recipe_id, slot, phrase) → adds
    * `ing_id` (−1 unmatched, −2 noise). The dictionary is broadcast.
    */
  def alias(spark: SparkSession, u: FlavorUniverse, phrases: DataFrame): DataFrame = {
    val bc = spark.sparkContext.broadcast(dictionary(u))
    val aliasUdf = udf((p: String) => aliasPhrase(bc.value, p))
    phrases.withColumn("ing_id", aliasUdf(col("phrase")))
  }

  /** The recipe table the analysis consumes: matched rows only, one row
    * per (region, recipe_id, ing_id).
    */
  def aliasedRecipes(spark: SparkSession, u: FlavorUniverse, phrases: DataFrame): DataFrame =
    alias(spark, u, phrases)
      .filter(col("ing_id") >= 0)
      .select("region", "recipe_id", "ing_id")
}
