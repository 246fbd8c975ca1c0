package repro.core

/** Z-score of a cuisine's food pairing against a randomized model
  * (Methodology IV.B):
  *
  *   Z = sqrt(n_rand) · (N_s^C − N_s^rand) / σ_rand
  *
  * where σ_rand is the standard deviation of recipe scores in the
  * randomized cuisine and n_rand the number of random recipes.
  */
object ZScore {

  /** Z for one (cuisine, model). Z is undefined when σ_rand = 0 (every
    * random recipe scores the same, e.g. a cuisine of empty-profile
    * ingredients only); it is then NaN, never ±Inf.
    */
  def z(nsReal: Double, nsRand: Double, sigmaRand: Double, nRand: Long): Double =
    if (sigmaRand == 0.0) Double.NaN
    else math.sqrt(nRand.toDouble) * (nsReal - nsRand) / sigmaRand
}
