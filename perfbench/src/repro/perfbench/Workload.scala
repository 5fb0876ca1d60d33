package repro.perfbench

import repro.core.{HarmonyConfig, Mode}
import repro.exp.Experiments
import repro.ivf.IVFIndex
import repro.sim.CostParams
import repro.vectors.{Datasets, GenConfig, VectorDataset, VectorGen}

/** One benchmark workload: a registry dataset, a deployment mode and the
  * shape of the query stream a single closed-loop client sends.
  *
  * @param skewLevel `None` for uniform queries (`VectorGen.genQueries`,
  *                  Zipf 0); `Some(level)` for
  *                  `Experiments.adversarialQueries` at that level
  * @param warmSeconds  warm-up before timing. The JIT keeps compiling Spark's
  *                     paths for a number of jobs, not of seconds, so
  *                     workloads with more jobs per second warm up longer.
  */
final case class Workload(
    name: String,
    dataset: GenConfig,
    mode: Mode,
    nprobe: Int,
    batchSize: Int,
    skewLevel: Option[Double],
    warmSeconds: Double,
) {
  def nlist: Int = Experiments.nlistFor(dataset.n)

  def harmonyConfig: HarmonyConfig = HarmonyConfig(
    nNodes = Workload.Nodes,
    mode = mode,
    k = Workload.K,
    nprobe = nprobe,
    alpha = 0.5,
    maxWaves = 4,
    prewarmPerCluster = 4,
    costParams = Workload.PinnedCostParams,
  )

  /** `n` queries from this workload's distribution, deterministic in `seed`. */
  def queries(ds: VectorDataset, index: IVFIndex, n: Int, seed: Long): Array[Array[Float]] =
    skewLevel match {
      case None => VectorGen.genQueries(dataset, n, zipfAlpha = 0.0, seed = seed)
      case Some(level) =>
        Experiments.adversarialQueries(index, ds, Workload.Nodes, n, level, seed = seed,
          nprobe = nprobe)
    }
}

object Workload {
  val Nodes = 4
  val K = 10

  /** Today's `CostParams` defaults written out, so that retuning the
    * defaults moves neither `sim_qps` nor the planner's grid. */
  val PinnedCostParams: CostParams = CostParams(
    dimOpSeconds = 1.0 / 5.0e9,
    byteSeconds = 2.0 / 1.0e9,
    msgLatencySeconds = 2e-6,
    stageOverheadSeconds = 2e-5,
    clientDimOpSeconds = 2e-11,
    overlapComm = true,
  )

  val all: Seq[Workload] = Seq(
    // 20-query batches: the engine's fixed per-batch cost (W x bDim Spark
    // jobs, tau broadcasts, shuffles, driver merge) dominates.
    Workload("hybrid-small-batch", Datasets.sift1m, Mode.Harmony, nprobe = 16,
      batchSize = 20, skewLevel = None, warmSeconds = 12),
    // the same engine and planner under a hot-shard workload: the cost
    // model, load-aware placement and rotation decide per-node balance.
    Workload("skewed-hybrid", Datasets.sift1m, Mode.Harmony, nprobe = 16,
      batchSize = 100, skewLevel = Some(1.0), warmSeconds = 10),
    // bDim = 1: no inter-stage shuffle and no pruning across slices, so the
    // distance kernel dominates; the control for job-count work.
    Workload("vector-scan", Datasets.handOutlines, Mode.HarmonyVector, nprobe = 48,
      batchSize = 100, skewLevel = None, warmSeconds = 6),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
