package perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.core.{Contribution, FoodPairing, RandomModels, ZScore}
import repro.data.{CuisineGen, PhraseGen, Regions}
import repro.exp.Experiments
import repro.exp.Experiments.{CategoryRow, ContributorRow, PairingRow, SizeRow, Table1Row}
import repro.flavor.FlavorGen
import repro.ingest.Aliaser
import repro.pipeline.Pipeline
import repro.stats.CuisineStats

import Reference.relClose

/** Inputs a run derives from its seed; the program receives only these. */
final case class Params(scale: Double, corpusSeed: Long, nullSeed: Long,
                        nRand: Int, regions: Vector[String])

/** One benchmark workload.
  *
  * `run` makes exactly the program's calls and is what `wall_s` times.
  * `traced` makes the same calls one public function at a time, each inside
  * a span; a span around a call that returns a lazy DataFrame times the
  * forcing action (count/collect) named in the span. Its output must equal
  * `run`'s. Layer counts go to `counts`.
  */
sealed abstract class Workload[R](val name: String) {
  /** Whether set-up builds the pipeline (otherwise the workload builds it). */
  def prepares: Boolean
  def run(spark: SparkSession, prepared: Option[Pipeline]): R
  def traced(t: Tracer, spark: SparkSession, prepared: Option[Pipeline],
             counts: Counts): R
  def check(c: Checks, prepared: Option[Pipeline], out: R): Unit
  def same(a: R, b: R): Boolean
  /** Drop what the workload itself cached, before it runs again. */
  def release(out: R): Unit = ()
}

final class Counts {
  private val m = collection.mutable.LinkedHashMap.empty[String, Double]
  def add(name: String, v: Double): Unit = m(name) = m.getOrElse(name, 0.0) + v
  def max(name: String, v: Double): Unit = m(name) = math.max(m.getOrElse(name, v), v)
  def apply(name: String): Double = m.getOrElse(name, 0.0)
}

/** Builds the pipeline and forces its cached tables ("inputs ready"). */
object Prepare {

  def untraced(spark: SparkSession, ps: Params): Pipeline = {
    val p = Pipeline.build(spark, ps.scale, ps.corpusSeed)
    p.phrases.count(); p.recipes.count(); p.ingredients.count()
    p.profiles.count(); p.pairShared.count()
    p
  }

  /** The same, with the eager steps of `Pipeline.build` also timed one by
    * one beforehand (that work is then repeated inside `pipeline.build`).
    */
  def traced(t: Tracer, spark: SparkSession, ps: Params, counts: Counts): Pipeline = {
    val u = t.span("flavor.universe")(FlavorGen.universe())
    val rows = t.span("data.corpus_gen")(CuisineGen.generate(u, ps.scale, ps.corpusSeed))
    counts.add("data.recipes", rows.size)
    counts.add("data.slots", rows.map(_.ingredientIds.size.toLong).sum)
    val phrases = t.span("data.phrase_gen")(rows.flatMap { r =>
      PhraseGen.phrases(u, r).map { case (slot, ph) => (r.region, r.recipeId, slot, ph) }
    })
    counts.add("data.phrases", phrases.size)

    val p = t.span("pipeline.build")(Pipeline.build(spark, ps.scale, ps.corpusSeed))
    t.span("pipeline.phrases", spark = true)(p.phrases.count())
    counts.add("ingest.matched", t.span("ingest.alias", spark = true)(p.recipes.count()))
    val byClass: Map[String, Long] = t.span("ingest.coverage", spark = true) {
      Aliaser.alias(spark, p.universe, p.phrases)
        .groupBy(when(col("ing_id") >= 0, "matched")
          .when(col("ing_id") === Aliaser.NoiseId, "noise").otherwise("unmatched"))
        .count().collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    }
    counts.add("ingest.unmatched", byClass.getOrElse("unmatched", 0L).toDouble)
    counts.add("ingest.noise", byClass.getOrElse("noise", 0L).toDouble)
    t.span("flavor.ingredients", spark = true)(p.ingredients.count())
    counts.add("flavor.profile_rows", t.span("flavor.profiles", spark = true)(p.profiles.count()))
    counts.add("flavor.pairs", t.span("flavor.pair_shared", spark = true)(p.pairShared.count()))
    p
  }

  def release(p: Pipeline): Unit =
    Seq(p.phrases, p.recipes, p.ingredients, p.profiles, p.pairShared)
      .foreach(_.unpersist(blocking = true))

  /** (region, recipe id, ingredient) rows of the aliased recipe table. */
  def recipeRows(p: Pipeline): Array[(String, Long, Int)] =
    p.recipes.select("region", "recipe_id", "ing_id").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getInt(2)))
}

// ── corpus_build ──────────────────────────────────────────────────────────

final case class CorpusOut(p: Pipeline, table1: Vector[Table1Row],
                           categories: Vector[CategoryRow], sizes: Vector[SizeRow],
                           histogram: Vector[(Int, Long)], slopes: Vector[(String, Double)])

/** The pipeline build, Table 1 and Figs 2-3: everything but the null models
  * and Fig 5.
  */
final class CorpusBuild(ps: Params) extends Workload[CorpusOut]("corpus_build") {
  val prepares = false

  def run(spark: SparkSession, prepared: Option[Pipeline]): CorpusOut = {
    val p = Prepare.untraced(spark, ps)
    CorpusOut(p, Experiments.table1(p), Experiments.categoryComposition(p),
              Experiments.meanSizes(p), Experiments.worldSizeHistogram(p),
              Experiments.popularitySlopes(p))
  }

  def traced(t: Tracer, spark: SparkSession, prepared: Option[Pipeline],
             counts: Counts): CorpusOut = {
    val p = Prepare.traced(t, spark, ps, counts)
    val table1 = t.span("stats.table1", spark = true)(Experiments.table1(p))
    val cats = t.span("stats.category", spark = true)(Experiments.categoryComposition(p))
    val sizes = t.span("stats.sizes", spark = true)(Experiments.meanSizes(p))
    val hist = t.span("stats.sizes", spark = true)(Experiments.worldSizeHistogram(p))
    val slopes = t.span("stats.popularity", spark = true)(Experiments.popularitySlopes(p))
    CorpusOut(p, table1, cats, sizes, hist, slopes)
  }

  override def release(out: CorpusOut): Unit = Prepare.release(out.p)

  def check(c: Checks, prepared: Option[Pipeline], out: CorpusOut): Unit = {
    val p = out.p
    val truth = p.groundTruth
    val rows = Prepare.recipeRows(p)
    c("aliased recipes equal ground truth",
      rows.toSet == truth.flatMap(r => r.ingredientIds.map((r.region, r.recipeId, _))).toSet)

    val t1 = out.table1.map(r => r.region -> r).toMap
    for (spec <- Regions.all) {
      val mine = truth.filter(_.region == spec.code)
      val row = t1.get(spec.code)
      c(s"table1 ${spec.code} recipes", row.exists(r =>
        r.recipes == mine.size && r.recipes == CuisineGen.scaledRecipes(spec, ps.scale)), s"$row")
      c(s"table1 ${spec.code} ingredients", row.exists(r =>
        r.ingredients == mine.flatMap(_.ingredientIds).distinct.size &&
          r.ingredients == CuisineGen.scaledPool(spec, ps.scale)), s"$row")
    }
    val world = t1.get(CuisineStats.World)
    c("table1 WORLD recipes", world.exists(w => w.recipes == truth.size &&
      w.recipes == Regions.generated.map(CuisineGen.scaledRecipes(_, ps.scale)).sum &&
      (ps.scale < 1.0 || w.recipes == 45772)), s"$world")
    c("table1 WORLD ingredients",
      world.exists(_.ingredients == truth.flatMap(_.ingredientIds).distinct.size), s"$world")

    // Recipe sizes over distinct ingredients, per region and WORLD (regional only).
    val sets = rows.groupBy(r => (r._1, r._2)).view.mapValues(_.map(_._3).distinct.length).toVector
    val regional = sets.filter(_._1._1 != CuisineStats.Unregioned)
    val byRegion = regional.groupBy(_._1._1) + (CuisineStats.World -> regional)
    val sizes = out.sizes.map(r => r.region -> r).toMap
    for ((region, rs) <- byRegion) {
      val n = rs.map(_._2)
      c(s"mean size $region", sizes.get(region).exists(s =>
        relClose(s.meanSize, n.sum.toDouble / n.size) && s.maxSize == n.max))
    }
    val hist = sets.groupBy(_._2).view.mapValues(_.size.toLong).toVector.sortBy(_._1)
    c("world size histogram", out.histogram == hist)

    val cat = p.universe.byId.view.mapValues(_.category).toMap
    val slots = rows.toVector.flatMap(r => Seq((r._1, cat(r._3)), (CuisineStats.World, cat(r._3))))
    val shares = slots.groupBy(_._1).flatMap { case (region, rs) =>
      rs.groupBy(_._2).map { case (k, v) => (region, k) -> v.size.toDouble / rs.size }
    }
    c("category shares", out.categories.size == shares.size && out.categories.forall(r =>
      shares.get((r.region, r.category)).exists(relClose(_, r.share))))

    val slope = regionalSlopes(rows)
    c("popularity slopes", out.slopes.size == Regions.all.size && out.slopes.forall {
      case (region, s) => s < 0 && slope.get(region).exists(relClose(s, _))
    }, s"${out.slopes.take(3)} vs ${slope.take(3)}")
  }

  /** Least-squares slope of ln(freq / max freq) against ln(rank) per region. */
  private def regionalSlopes(rows: Array[(String, Long, Int)]): Map[String, Double] =
    rows.distinct.filter(_._1 != CuisineStats.Unregioned).groupBy(_._1).map { case (region, rs) =>
      val freq = rs.groupBy(_._3).map { case (ing, v) => (ing, v.length.toLong) }.toVector
        .sortBy { case (ing, f) => (-f, ing) }
      val top = freq.head._2.toDouble
      val xy = freq.zipWithIndex.map { case ((_, f), i) => (math.log(i + 1.0), math.log(f / top)) }
      val n = xy.size.toDouble
      def mean(f: ((Double, Double)) => Double) = xy.map(f).sum / n
      region -> (mean(p => p._1 * p._2) - mean(_._1) * mean(_._2)) /
        (mean(p => p._1 * p._1) - mean(_._1) * mean(_._1))
    }

  def same(a: CorpusOut, b: CorpusOut): Boolean =
    a.table1 == b.table1 && a.histogram == b.histogram &&
      a.sizes.sortBy(_.region).zip(b.sizes.sortBy(_.region)).forall { case (x, y) =>
        x.region == y.region && x.maxSize == y.maxSize && relClose(x.meanSize, y.meanSize)
      } &&
      a.categories.size == b.categories.size &&
      a.categories.sortBy(r => (r.region, r.category)).zip(b.categories.sortBy(r => (r.region, r.category)))
        .forall { case (x, y) => x.region == y.region && x.category == y.category && relClose(x.share, y.share) } &&
      a.slopes.sorted.zip(b.slopes.sorted).forall { case (x, y) => x._1 == y._1 && relClose(x._2, y._2) }
}

// ── fig4_nullmodels ───────────────────────────────────────────────────────

final class Fig4NullModels(ps: Params) extends Workload[Vector[PairingRow]]("fig4_nullmodels") {
  val prepares = true

  def run(spark: SparkSession, prepared: Option[Pipeline]): Vector[PairingRow] =
    Experiments.foodPairing(prepared.get, ps.nRand, ps.nullSeed, ps.regions)

  def traced(t: Tracer, spark: SparkSession, prepared: Option[Pipeline],
             counts: Counts): Vector[PairingRow] = {
    import spark.implicits._
    val p = prepared.get
    val regional = Experiments.regionalRecipes(p)
    val realNs = t.span("core.real_scores", spark = true) {
      FoodPairing.cuisineScores(FoodPairing.recipeScores(spark, regional, p.pairShared))
        .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    }
    val out = Vector.newBuilder[PairingRow]
    for (region <- ps.regions) {
      val prof = t.span("core.profile")(RandomModels.profile(spark, region, regional, p.ingredients))
      counts.add("core.profile_calls", 1)
      for (model <- RandomModels.AllModels) {
        val rows = t.span("core.sample_rows")(RandomModels.sampleRows(prof, model, ps.nRand, ps.nullSeed))
        counts.add("core.sampled_slots", rows.size)
        val cs = t.span("core.null_scores", spark = true) {
          val sampled = rows.toDF("region", "recipe_id", "ing_id")
          FoodPairing.cuisineScores(FoodPairing.recipeScores(spark, sampled, p.pairShared)).collect()(0)
        }
        val (nsRand, sigma, n) = (cs.getDouble(1), cs.getDouble(2), cs.getLong(3))
        counts.add("core.streams", 1)
        counts.add("core.null_recipes", n)
        // Monte-Carlo standard error of N_s^rand, to 10 significant digits so
        // that summation order inside Spark cannot change it.
        counts.max("core.mc_se_max", BigDecimal(sigma / math.sqrt(n.toDouble))
          .round(new java.math.MathContext(10)).toDouble)
        out += PairingRow(region, model.name, realNs(region), nsRand, sigma, n,
                          ZScore.z(realNs(region), nsRand, sigma, n))
      }
    }
    out.result()
  }

  def check(c: Checks, prepared: Option[Pipeline], rows: Vector[PairingRow]): Unit = {
    val p = prepared.get
    val spark = p.spark
    val u = p.universe
    val regional = Experiments.regionalRecipes(p)
    val real = Prepare.recipeRows(p).filter(r => ps.regions.contains(r._1)).groupBy(_._1)
    c("one row per (region, model)",
      rows.map(r => (r.region, r.model)).toSet ==
        (for (g <- ps.regions; m <- RandomModels.AllModels) yield (g, m.name)).toSet &&
        rows.size == ps.regions.size * RandomModels.AllModels.size)
    for (region <- ps.regions) {
      val prof = RandomModels.profile(spark, region, regional, p.ingredients)
      val nsReal = Reference.scoreStats(u, Reference.recipeSets(real(region).map(r => (r._2, r._3)))).mean
      for (model <- RandomModels.AllModels; row <- rows.find(r => r.region == region && r.model == model.name)) {
        val key = s"$region@${model.name}"
        val sample = RandomModels.sampleRows(prof, model, ps.nRand, ps.nullSeed)
        val ref = Reference.scoreStats(u, Reference.recipeSets(sample.map(r => (r._2, r._3))))
        c(s"$key N_s^rand", relClose(row.nsRand, ref.mean), s"${row.nsRand} vs ${ref.mean}")
        c(s"$key sigma_rand", relClose(row.sigmaRand, ref.sigma), s"${row.sigmaRand} vs ${ref.sigma}")
        c(s"$key nRand", row.nRand == ref.n && ref.n == ps.nRand, s"${row.nRand} vs ${ref.n}")
        c(s"$key N_s^C", relClose(row.nsReal, nsReal), s"${row.nsReal} vs $nsReal")
        c(s"$key Z finite", java.lang.Double.isFinite(row.z), s"${row.z}")
      }
      def z(m: RandomModels.Model) = rows.find(r => r.region == region && r.model == m.name).map(_.z)
      val zRand = z(RandomModels.RandomUniform).getOrElse(Double.NaN)
      val zFreq = z(RandomModels.Frequency).getOrElse(Double.NaN)
      c(s"$region sign", math.signum(zRand) == Regions.byCode(region).zSign, s"Z=$zRand")
      c(s"$region frequency gate", math.abs(zFreq) < 0.40 * math.abs(zRand), s"$zFreq vs $zRand")
    }
  }

  def same(a: Vector[PairingRow], b: Vector[PairingRow]): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) =>
      x.region == y.region && x.model == y.model && x.nRand == y.nRand &&
        relClose(x.nsReal, y.nsReal) && relClose(x.nsRand, y.nsRand) &&
        relClose(x.sigmaRand, y.sigmaRand) && relClose(x.z, y.z)
    }
}

// ── fig5_contribution ─────────────────────────────────────────────────────

/** Fig 5: the top χ contributors of all 22 regions, with the planted signs. */
final class Fig5Contribution extends Workload[Vector[ContributorRow]]("fig5_contribution") {
  private val K = 3
  /** The planted pairing signs, which Fig 4 recovers. */
  private val signs: Map[String, Int] = Regions.all.map(r => r.code -> r.zSign).toMap
  val prepares = true

  def run(spark: SparkSession, prepared: Option[Pipeline]): Vector[ContributorRow] =
    Experiments.topContributors(prepared.get, signs, K)

  def traced(t: Tracer, spark: SparkSession, prepared: Option[Pipeline],
             counts: Counts): Vector[ContributorRow] = {
    import spark.implicits._
    val p = prepared.get
    val regional = Experiments.regionalRecipes(p)
    counts.add("core.pairs", t.span("core.pairs", spark = true)(FoodPairing.recipePairs(regional).count()))
    // chi and popularity are cached when forced so that the final join reuses
    // them; the session is stopped after the trace, which drops the caches.
    val chi = t.span("core.chi", spark = true) {
      val df = Contribution.chi(spark, regional, p.pairShared).persist()
      counts.add("core.chi_rows", df.count())
      df
    }
    val pop = t.span("stats.popularity", spark = true) {
      val df = CuisineStats.popularity(regional)
        .select(col("region"), col("ing_id"), col("rank").as("pop_rank")).persist()
      df.count()
      df
    }
    t.span("core.top_contributors", spark = true) {
      Contribution.topContributors(chi, signs.toSeq.toDF("region", "sign"), K)
        .join(broadcast(p.ingredients.select("ing_id", "name")), "ing_id")
        .join(pop, Seq("region", "ing_id"))
        .select("region", "rank", "name", "chi", "freq", "pop_rank")
        .collect()
        .map(r => ContributorRow(r.getString(0), r.getInt(1), r.getString(2),
                                 r.getDouble(3), r.getLong(4), r.getInt(5)))
        .toVector
        .sortBy(r => (r.region, r.rank))
    }
  }

  def check(c: Checks, prepared: Option[Pipeline], rows: Vector[ContributorRow]): Unit = {
    val p = prepared.get
    val byRegion = Prepare.recipeRows(p).groupBy(_._1)
    for (spec <- Regions.all) {
      val mine = rows.filter(_.region == spec.code)
      c(s"${spec.code} has $K ranked rows", mine.map(_.rank) == (1 to K))
      c(s"${spec.code} chi finite", mine.forall(r => java.lang.Double.isFinite(r.chi)))
      for (top <- mine.find(_.rank == 1)) {
        c(s"${spec.code} top-1 sign", top.chi * spec.zSign < 0, s"chi=${top.chi}")
        val recipes = Reference.recipeSets(byRegion(spec.code).map(r => (r._2, r._3)))
        val ing = p.universe.byName(top.ingredient).id
        val ref = Reference.chi(p.universe, recipes, ing)
        c(s"${spec.code} top-1 chi = brute-force removal", relClose(top.chi, ref), s"${top.chi} vs $ref")
        c(s"${spec.code} top-1 freq", top.freq == recipes.count(_.contains(ing)))
      }
    }
  }

  def same(a: Vector[ContributorRow], b: Vector[ContributorRow]): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) =>
      x.copy(chi = 0) == y.copy(chi = 0) && relClose(x.chi, y.chi)
    }
}
