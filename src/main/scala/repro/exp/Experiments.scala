package repro.exp

import java.util.concurrent.{Callable, Executors}

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.{Contribution, FoodPairing, RandomModels, ZScore}
import repro.data.Regions
import repro.flavor.FlavorGen
import repro.pipeline.Pipeline
import repro.stats.CuisineStats

/** Harness logic shared by the spark-submit jobs (jobs/) and the bench
  * suites (bench/): each paper table/figure has one entry point returning
  * plain rows ready for printing and assertion.
  */
object Experiments {

  /** Paper Table-1 row order (alphabetical by region name, as printed). */
  val Table1Order: Vector[String] = Vector(
    "AFR", "ANZ", "BRI", "CAN", "CBN", "CHN", "DACH", "EE", "FRA", "GRC",
    "INSC", "ITA", "JPN", "KOR", "MEX", "ME", "SCND", "SAM", "SEA", "ESP",
    "THA", "USA",
  )

  /** The analysis-ready recipe table restricted to the 22 true regions. */
  def regionalRecipes(p: Pipeline): DataFrame =
    p.recipes.filter(col("region") =!= CuisineStats.Unregioned)

  // ── Table 1 ────────────────────────────────────────────────────────────

  final case class Table1Row(region: String, recipes: Long, ingredients: Long)

  def table1(p: Pipeline): Vector[Table1Row] = {
    val rows = CuisineStats.table1(p.recipes).collect()
      .map(r => Table1Row(r.getString(0), r.getLong(1), r.getLong(2)))
      .map(t => t.region -> t).toMap
    (Table1Order :+ CuisineStats.World).map(rows)
  }

  // ── Fig 2: category composition ────────────────────────────────────────

  final case class CategoryRow(region: String, category: String, share: Double)

  def categoryComposition(p: Pipeline): Vector[CategoryRow] =
    CuisineStats.categoryComposition(p.recipes, p.ingredients).collect()
      .map(r => CategoryRow(r.getString(0), r.getString(1), r.getDouble(3)))
      .toVector

  // ── Fig 3: recipe sizes and popularity ────────────────────────────────

  final case class SizeRow(region: String, meanSize: Double, maxSize: Int)

  def meanSizes(p: Pipeline): Vector[SizeRow] =
    CuisineStats.meanRecipeSize(CuisineStats.withWorld(regionalRecipes(p)))
      .collect()
      .map(r => SizeRow(r.getString(0), r.getDouble(1), r.getInt(2)))
      .toVector

  def popularitySlopes(p: Pipeline): Vector[(String, Double)] =
    CuisineStats.popularitySlope(regionalRecipes(p)).collect()
      .map(r => (r.getString(0), r.getDouble(1)))
      .toVector

  /** World recipe-size histogram (n → count). */
  def worldSizeHistogram(p: Pipeline): Vector[(Int, Long)] =
    CuisineStats.sizeDistribution(
      p.recipes.withColumn("region", lit(CuisineStats.World)))
      .collect()
      .map(r => (r.getInt(1), r.getLong(2)))
      .sortBy(_._1)
      .toVector

  // ── Fig 4: food pairing Z-scores ──────────────────────────────────────

  final case class PairingRow(region: String, model: String, nsReal: Double,
                              nsRand: Double, sigmaRand: Double, nRand: Long,
                              z: Double)

  /** Compute Z for every (region, null model).
    *
    * The real N_s^C comes from the Spark operator over the requested
    * regions. Each (region, model) stream is drawn and scored on the driver
    * against the dense overlap matrix ([[RandomModels.nullScore]]); the
    * streams run in parallel on `defaultParallelism` threads. Every stream
    * has its own seeded RNG and a fixed summation order, so the rows do not
    * depend on the thread count.
    */
  def foodPairing(p: Pipeline, nRand: Int, seed: Long = 11L,
                  regions: Vector[String] = Table1Order): Vector[PairingRow] = {
    val spark = p.spark
    val regional = regionalRecipes(p).filter(col("region").isin(regions: _*))
    val realNs: Map[String, Double] =
      FoodPairing.cuisineScores(FoodPairing.recipeScores(spark, regional, p.pairShared))
        .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    val profiles = RandomModels.profiles(spark, regional, p.ingredients, regions)

    val streams = for (region <- regions; model <- RandomModels.AllModels) yield (region, model)
    val pool = Executors.newFixedThreadPool(spark.sparkContext.defaultParallelism)
    try {
      streams.map { case (region, model) =>
        pool.submit(new Callable[PairingRow] {
          def call(): PairingRow = {
            val s = RandomModels.nullScore(p.universe, profiles(region), model, nRand, seed)
            PairingRow(region, model.name, realNs(region), s.ns, s.sigma, s.n,
                       ZScore.z(realNs(region), s.ns, s.sigma, s.n))
          }
        })
      }.map(_.get)
    } finally pool.shutdown()
  }

  /** Observed pairing sign per region from the Random-model Z. */
  def observedSigns(rows: Vector[PairingRow]): Map[String, Int] =
    rows.filter(_.model == RandomModels.RandomUniform.name)
      .map(r => r.region -> (if (r.z >= 0) 1 else -1)).toMap

  // ── Fig 5: top contributing ingredients ───────────────────────────────

  /** `chi` is NaN where χ is undefined (see [[Contribution.chi]]). */
  final case class ContributorRow(region: String, rank: Int, ingredient: String,
                                  chi: Double, freq: Long, popularityRank: Int)

  def topContributors(p: Pipeline, signs: Map[String, Int], k: Int = 3): Vector[ContributorRow] = {
    import p.spark.implicits._
    val signsDf = signs.toSeq.toDF("region", "sign")
    val chi = Contribution.chi(p.spark, regionalRecipes(p), p.pairShared)
    val pop = CuisineStats.popularity(regionalRecipes(p))
      .select(col("region"), col("ing_id"), col("rank").as("pop_rank"))
    Contribution.topContributors(chi, signsDf, k)
      .join(broadcast(p.ingredients.select("ing_id", "name")), "ing_id")
      .join(pop, Seq("region", "ing_id"))
      .select("region", "rank", "name", "chi", "freq", "pop_rank")
      .collect()
      .map(r => ContributorRow(r.getString(0), r.getInt(1), r.getString(2),
                               if (r.isNullAt(3)) Double.NaN else r.getDouble(3),
                               r.getLong(4), r.getInt(5)))
      .toVector
      .sortBy(r => (r.region, r.rank))
  }

  // ── formatting: each paper table is laid out once, for jobs and benches ─

  def fmtTable1(rows: Vector[Table1Row]): String =
    "=== TABLE 1: Statistics of recipes and ingredients across world cuisines ===\n" +
      fmtTable(
        Seq("Region", "Recipes(paper)", "Recipes(ours)", "Ingredients(paper)", "Ingredients(ours)"),
        rows.map { r =>
          val paper = Regions.byCode.get(r.region)
          Seq(r.region, paper.fold(Regions.worldRecipes)(_.recipes).toString, r.recipes.toString,
              paper.fold("-")(_.ingredients.toString), r.ingredients.toString)
        })

  def fmtCategoryComposition(rows: Vector[CategoryRow]): String = {
    val shares = rows.groupBy(_.region).view.mapValues(_.map(c => c.category -> c.share).toMap)
    val cats = FlavorGen.Categories
    "=== FIG 2: Compositions of recipes in terms of ingredient categories (% of slots) ===\n" +
      fmtTable(
        "Region" +: cats.map(_.take(9)),
        (Table1Order :+ CuisineStats.World).filter(shares.contains).map(reg =>
          reg +: cats.map(c => f"${shares(reg).getOrElse(c, 0.0) * 100}%.1f")))
  }

  def fmtSizeHistogram(hist: Vector[(Int, Long)]): String = {
    val total = hist.map(_._2).sum.toDouble
    "=== FIG 3a: WORLD recipe-size distribution ===\n" +
      fmtTable(
        Seq("n", "recipes", "P(n)"),
        hist.map { case (n, c) => Seq(n.toString, c.toString, f"${c / total}%.4f") })
  }

  def fmtSizes(sizes: Vector[SizeRow], slopes: Vector[(String, Double)]): String = {
    val bySize = sizes.map(s => s.region -> s).toMap
    val bySlope = slopes.toMap
    "=== FIG 3: recipe size and popularity rank-frequency log-log slope per region ===\n" +
      fmtTable(
        Seq("Region", "MeanSize", "MaxSize", "PopularitySlope"),
        (Table1Order :+ CuisineStats.World).filter(bySize.contains).map { reg =>
          Seq(reg, f"${bySize(reg).meanSize}%.2f", bySize(reg).maxSize.toString,
              bySlope.get(reg).fold("-")(s => f"$s%.3f"))
        })
  }

  /** Fig 4, one line per region in the order of `rows`. */
  def fmtFoodPairing(rows: Vector[PairingRow]): String = {
    val byKey = rows.map(r => (r.region, r.model) -> r).toMap
    s"=== FIG 4: food pairing Z-scores (nRand=${rows.head.nRand}) ===\n" +
      fmtTable(
        Seq("Region", "PaperSign", "Ns_real", "Ns_rand", "Z_random", "Z_frequency",
            "Z_category", "Z_freq_cat"),
        rows.map(_.region).distinct.map { reg =>
          val random = byKey((reg, RandomModels.RandomUniform.name))
          Seq(reg, if (Regions.byCode(reg).zSign > 0) "+" else "-",
              f"${random.nsReal}%.3f", f"${random.nsRand}%.3f") ++
            RandomModels.AllModels.map(m => fmtZ(byKey((reg, m.name)).z))
        })
  }

  /** Fig 5; `signs` are the pairing directions the contributors were ranked by. */
  def fmtContributors(rows: Vector[ContributorRow], signs: Map[String, Int]): String =
    "=== FIG 5: top-3 ingredients contributing to the observed food pairing ===\n" +
      fmtTable(
        Seq("Region", "Sign", "Rank", "Ingredient", "Chi(%)", "Freq", "PopRank"),
        rows.map(r => Seq(r.region, if (signs(r.region) > 0) "+" else "-",
                          r.rank.toString, r.ingredient, fmtDefined(r.chi, 3),
                          r.freq.toString, r.popularityRank.toString)))

  /** `x` to `decimals` places; "undefined" where x is not finite. */
  private def fmtDefined(x: Double, decimals: Int): String =
    if (java.lang.Double.isFinite(x)) s"%.${decimals}f".format(x) else "undefined"

  /** A Z-score for a printed table; "undefined" where Z is not finite. */
  def fmtZ(z: Double): String = fmtDefined(z, 1)

  /** Fixed-width ASCII table. */
  def fmtTable(headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def line(cells: Seq[String]) =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(headers) +: sep +: rows.map(line)).mkString("\n")
  }
}
