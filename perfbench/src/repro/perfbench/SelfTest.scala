package repro.perfbench

import repro.core.Mode
import repro.linalg.Hit
import repro.vectors.GenConfig

/** Tiny-size self-test of the benchmark itself:
  *  1. the checker flags an injected wrong hit but accepts a distance tie;
  *  2. a batch's driver self time is its span minus the union of its job
  *     spans, on synthetic spans;
  *  3. a tiny workload emits every declared metric with a unit, reads
  *     `query_error_rate` = 0 and `engine.leaked_rdds` = 0, attributes
  *     4 x bDim jobs to each batch, and repeats `sim_qps` and every exact
  *     count for the same seed.
  * Exits non-zero if any check fails.
  */
object SelfTest {
  private var failures = 0

  private def check(name: String, ok: Boolean, detail: => String = ""): Unit = {
    println(s"${if (ok) "ok  " else "FAIL"} $name${if (ok) "" else s": $detail"}")
    if (!ok) failures += 1
  }

  def main(args: Array[String]): Unit = {
    checker()
    selfTime()
    tinyRun()
    println(if (failures == 0) "self-test passed" else s"self-test: $failures check(s) failed")
    sys.exit(if (failures == 0) 0 else 1)
  }

  private def checker(): Unit = {
    val q = Array(0f, 0f)
    val vecs = Map(0L -> Array(1f, 0f), 1L -> Array(0f, 1f), 2L -> Array(2f, 0f))
    val want = Array(Hit(0, 1.0), Hit(2, 4.0))
    def flags(got: Array[Hit]) = Checker.check(q, got, want, vecs).isDefined
    check("checker accepts the reference", !flags(want))
    check("checker accepts an exact distance tie", !flags(Array(Hit(1, 1.0), Hit(2, 4.0))))
    check("checker flags a wrong id with a copied distance", flags(Array(Hit(0, 1.0), Hit(1, 4.0))))
    check("checker flags a wrong distance", flags(Array(Hit(0, 1.0), Hit(1, 1.0))))
    check("checker flags a missing hit", flags(Array(Hit(0, 1.0))))

    val qs = Array(q, q, q)
    def batch(got: Array[Array[Hit]]) = Checker.checkBatch(qs, got, _ => want, vecs).map(_._1)
    check("batch check accepts a full batch", batch(Array.fill(3)(want)).isEmpty)
    check("batch check flags each query of a short result", batch(Array.fill(1)(want)) == Seq(1, 2),
      batch(Array.fill(1)(want)).mkString(","))
    check("batch check flags each extra hit list", batch(Array.fill(5)(want)) == Seq(3, 4),
      batch(Array.fill(5)(want)).mkString(","))
  }

  private def selfTime(): Unit = {
    val ms = 1000000L
    val t = new Tracer
    val batch = t.addEpoch("batch", -1, "b", 0, 100 * ms)
    val jobs = Seq((10L, 30L), (20L, 40L), (60L, 70L), (95L, 120L))
    jobs.foreach { case (s, e) => t.addEpoch("spark.job", batch, "b", s * ms, e * ms) }
    val union = Tracer.unionNs(jobs.map { case (s, e) => (s * ms, math.min(e, 100L) * ms) })
    check("job union clips to the batch", union == 45 * ms, s"union ${union / ms} ms")
    check("driver self time = batch - job union", t.selfTimes(batch) == 100 * ms - union,
      s"self ${t.selfTimes(batch) / ms} ms")
  }

  private def tinyRun(): Unit = {
    val cfg = GenConfig(name = "Tiny", n = 4000, dim = 32, nQueries = 32, decayRate = 1.0,
      radiusSpread = 0.85, seed = 7)
    val wl = Workload("tiny", cfg, Mode.Harmony, nprobe = 4, batchSize = 8, skewLevel = None,
      warmSeconds = 0.3)
    val sizes = Sizes(setupReps = 2, settleSeconds = 0.1, poolQueries = 64, countBatches = 3,
      recallQueries = 16, ivfSearchSeconds = 0.05, kernelSeconds = 0.05)
    val spark = Main.session("perfbench-selftest")
    try {
      def run(trace: Boolean) = new Bench(spark, wl, seed = 5, seconds = 1.0, trace, sizes).run()
      val plain = run(trace = false)
      val traced = run(trace = true)
      val again = run(trace = false)
      Main.report(wl.name, 5, trace = false, plain)
      Main.report(wl.name, 5, trace = true, traced)

      def names(o: Outcome) = o.metrics.filter(_._1.unit.nonEmpty).map(_._1.name).toSet
      val missingE2e = Metrics.endToEnd.map(_.name).filterNot(names(plain))
      val missingLayer = Metrics.perLayer.map(_.name).filterNot(names(traced))
      check("untraced run emits every end-to-end metric with a unit", missingE2e.isEmpty,
        missingE2e.mkString(", "))
      check("traced run emits every per-layer metric with a unit", missingLayer.isEmpty,
        missingLayer.mkString(", "))
      check("no query errors", plain.correct && plain.value("query_error_rate") == 0.0 &&
        traced.correct, plain.notes.mkString("; "))
      check("no leaked RDDs", plain.value("engine.leaked_rdds") == 0.0 &&
        traced.value("engine.leaked_rdds") == 0.0)
      check("jobs per batch = 4 x plan bDim",
        traced.value("engine.jobs_per_batch") == 4 * traced.value("core.plan_bdim"),
        s"${traced.value("engine.jobs_per_batch")} jobs, bDim ${traced.value("core.plan_bdim")}")
      val drift = Metrics.exact.toSeq.sorted.filter(n => plain.value(n) != again.value(n))
      check("sim_qps and counts repeat exactly for a seed", drift.isEmpty,
        drift.map(n => s"$n ${plain.value(n)} vs ${again.value(n)}").mkString(", "))
    } finally spark.stop()
  }
}
