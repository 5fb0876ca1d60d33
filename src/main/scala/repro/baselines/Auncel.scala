package repro.baselines

import org.apache.spark.sql.SparkSession

import repro.core.{Harmony, HarmonyConfig, HarmonySystem, Mode}
import repro.ivf.IVFIndex
import repro.sim.CostParams

/** Auncel comparator (§6.5.4).
  *
  * Auncel distributes work with a *fixed* vector-based partitioning and no
  * dimension-level pruning or load-aware placement — the paper itself
  * characterizes its distribution as "similar to Harmony-vector". We model
  * exactly that: static (naive) cluster placement, vector partitioning,
  * pruning off.
  */
object Auncel {

  def deploy(spark: SparkSession, index: IVFIndex, nNodes: Int, k: Int, nprobe: Int,
             params: CostParams = CostParams()): HarmonySystem = {
    val cfg = HarmonyConfig(
      nNodes = nNodes, mode = Mode.HarmonyVector, k = k, nprobe = nprobe,
      pruning = false, pipeline = true, balancedLoad = false, costParams = params)
    Harmony.deploy(spark, index, cfg, workloadSample = Array.empty)
  }
}
