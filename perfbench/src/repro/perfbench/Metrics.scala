package repro.perfbench

/** A named metric and its unit. */
final case class MetricDef(name: String, unit: String)

/** Every metric the benchmark emits. End-to-end metrics come from the
  * untraced run; per-layer metrics from the traced run, except the counts
  * taken from `EngineResult` / `SimReport`, which are exact in both.
  */
object Metrics {
  private def m(name: String, unit: String) = MetricDef(name, unit)

  val endToEnd: Seq[MetricDef] = Seq(
    m("qps", "queries/s"),
    m("batch_ms_p50", "ms"),
    m("batch_ms_p90", "ms"),
    m("sim_qps", "queries/s"),
    m("recall_at_10", "fraction"),
    m("query_error_rate", "fraction"),
    m("setup_s", "s"),
    m("heap_mb", "MB"),
  )

  val perLayer: Seq[MetricDef] = Seq(
    m("linalg.l2_gdimops_s", "Gdimop/s"),
    m("linalg.route_us_per_query", "us"),
    m("ivf.build_s", "s"),
    m("ivf.search_qps", "queries/s"),
    m("ivf.dimops_per_query", "count"),
    m("core.plan_ms", "ms"),
    m("core.plan_bdim", "count"),
    m("core.plan_load_err", "fraction"),
    m("core.preassign_ms", "ms"),
    m("core.node_storage_mb_max", "MB"),
    m("engine.jobs_per_batch", "count"),
    m("engine.stages_per_batch", "count"),
    m("engine.tasks_per_batch", "count"),
    m("engine.driver_ms_per_batch", "ms"),
    m("engine.job_ms_per_batch", "ms"),
    m("engine.task_run_ms_per_batch", "ms"),
    m("engine.task_cpu_ms_per_batch", "ms"),
    m("engine.task_deser_ms_per_batch", "ms"),
    m("engine.gc_ms_per_batch", "ms"),
    m("engine.task_wait_ms_per_batch", "ms"),
    m("engine.shuffle_write_mb_per_batch", "MB"),
    m("engine.fetch_wait_ms_per_batch", "ms"),
    m("engine.dimops_per_query", "count"),
    m("engine.dimops_vs_ivf", "ratio"),
    m("engine.prune_frac", "fraction"),
    m("engine.load_cv", "ratio"),
    m("engine.sim_bytes_per_query", "bytes"),
    m("engine.sim_msgs_per_query", "count"),
    m("engine.first_batch_ms", "ms"),
    m("engine.leaked_rdds", "count"),
    m("sim.comp_ms_per_batch", "ms"),
    m("sim.comm_ms_per_batch", "ms"),
    m("sim.other_ms_per_batch", "ms"),
    m("trace.overhead", "ratio"),
  )

  /** Metrics computed from counted work over the fixed prefix of timed
    * batches: they repeat exactly for a seed. */
  val exact: Set[String] = Set(
    "sim_qps", "recall_at_10", "ivf.dimops_per_query", "core.plan_bdim",
    "core.plan_load_err", "core.node_storage_mb_max", "engine.dimops_per_query",
    "engine.dimops_vs_ivf", "engine.prune_frac", "engine.load_cv",
    "engine.sim_bytes_per_query", "engine.sim_msgs_per_query", "engine.leaked_rdds",
    "sim.comp_ms_per_batch", "sim.comm_ms_per_batch", "sim.other_ms_per_batch")

  private val byName = (endToEnd ++ perLayer).map(d => d.name -> d).toMap

  def apply(name: String): MetricDef =
    byName.getOrElse(name, throw new NoSuchElementException(s"undeclared metric $name"))

  /** Linear-interpolated percentile `p` in [0, 100] of `xs`. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    val pos = p / 100.0 * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
}
