package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.core.CostModel.SurvivalStats
import repro.sim.CostParams

class CostModelSpec extends AnyFunSuite {

  private val nlist = 16
  private val dim = 64
  private val listSizes = Array.fill(nlist)(250)
  private val uniformPop = Array.fill(nlist)(1.0 / nlist)
  private val params = CostParams()
  private val noPrune = SurvivalStats.none(dim)

  /** flat energy, aggressive pruning once any mass has accumulated */
  private def strongPrune(floor: Double = 0.1): SurvivalStats =
    SurvivalStats(dim, i => i.toDouble / dim, c => if (c <= 0) 1.0 else floor)

  private def skewedPop(hot: Int = 0): Array[Double] = {
    val p = Array.fill(nlist)(0.01 / (nlist - 1))
    p(hot) = 0.99
    p
  }

  test("estimate produces positive finite costs") {
    val c = CostModel.estimate(2, 2, dim, listSizes, uniformPop, 100, 4, params,
      alpha = 1.0, pruning = true, survival = noPrune)
    assert(c.totalSec > 0 && c.totalSec.isFinite)
    assert(c.compMakespanSec > 0 && c.commSec >= 0 && c.imbalanceSec >= 0)
  }

  test("uniform workload, no pruning: per-node loads are balanced in every grid") {
    for ((bv, bd) <- PartitionPlan.candidateGrids(4, dim)) {
      val c = CostModel.estimate(bv, bd, dim, listSizes, uniformPop, 100, 4, params,
        alpha = 1.0, pruning = false, survival = noPrune)
      val loads = c.perNodeLoadOps
      assert(loads.max - loads.min < 0.2 * loads.max + 1e-9,
        s"grid ($bv,$bd): ${loads.mkString(",")}")
    }
  }

  test("skewed workload: vector grid is imbalanced, dimension grid is not") {
    val v = CostModel.estimate(4, 1, dim, listSizes, skewedPop(), 100, 1, params,
      alpha = 1.0, pruning = false, survival = noPrune)
    val d = CostModel.estimate(1, 4, dim, listSizes, skewedPop(), 100, 1, params,
      alpha = 1.0, pruning = false, survival = noPrune)
    assert(v.imbalanceSec > d.imbalanceSec * 5)
  }

  test("dimension grids cost more communication than vector grids") {
    val v = CostModel.estimate(4, 1, dim, listSizes, uniformPop, 100, 4, params,
      alpha = 1.0, pruning = false, survival = noPrune)
    val d = CostModel.estimate(1, 4, dim, listSizes, uniformPop, 100, 4, params,
      alpha = 1.0, pruning = false, survival = noPrune)
    assert(d.commSec > v.commSec)
  }

  test("pruning discounts compute for dimension splits only") {
    val off = CostModel.estimate(1, 4, dim, listSizes, uniformPop, 100, 4, params,
      alpha = 1.0, pruning = false, survival = strongPrune())
    val on = CostModel.estimate(1, 4, dim, listSizes, uniformPop, 100, 4, params,
      alpha = 1.0, pruning = true, survival = strongPrune())
    assert(on.compMakespanSec < off.compMakespanSec)
    val v0 = CostModel.estimate(4, 1, dim, listSizes, uniformPop, 100, 4, params,
      alpha = 1.0, pruning = false, survival = strongPrune())
    val v1 = CostModel.estimate(4, 1, dim, listSizes, uniformPop, 100, 4, params,
      alpha = 1.0, pruning = true, survival = strongPrune())
    assert(math.abs(v0.compMakespanSec - v1.compMakespanSec) < 1e-15)
  }

  test("energy-concentrated data: the leading-slice node carries the load") {
    // 90% of the mass in slice 0 of a 4-way split; nothing prunable before
    // it, everything after → slice-0 node dominates
    val concentrated = SurvivalStats(dim,
      i => if (i >= dim / 4) 1.0 else i.toDouble / (dim / 4) * 0.9,
      c => if (c > 0.5) 0.05 else 1.0)
    val d = CostModel.estimate(1, 4, dim, listSizes, uniformPop, 100, 4, params,
      alpha = 1.0, pruning = true, survival = concentrated)
    // slice-0 host (node 0) keeps near-full arrivals; later slices pruned
    assert(d.perNodeLoadOps(0) > 1.8 * d.perNodeLoadOps(2), d.perNodeLoadOps.mkString(","))
  }

  test("choose picks pure vector for uniform, prune-resistant workloads") {
    val c = CostModel.choose(4, dim, listSizes, uniformPop, 100, 4, params,
      alpha = 1.0, pruning = true, survival = noPrune)
    assert(c.bDim == 1, s"chose (${c.bVec}, ${c.bDim})")
  }

  test("choose moves to dimension splits under heavy skew") {
    val c = CostModel.choose(4, dim, listSizes, skewedPop(), 200, 1, params,
      alpha = 2.0, pruning = true, survival = noPrune)
    assert(c.bDim > 1, s"chose (${c.bVec}, ${c.bDim})")
  }

  test("choose favors dimension splits when pruning is very effective") {
    val c = CostModel.choose(4, dim, listSizes, uniformPop, 200, 4, params,
      alpha = 1.0, pruning = true, survival = strongPrune(0.05))
    assert(c.bDim > 1, s"chose (${c.bVec}, ${c.bDim})")
  }

  test("larger alpha penalizes skew harder") {
    val lo = CostModel.estimate(4, 1, dim, listSizes, skewedPop(), 100, 1, params,
      alpha = 0.0, pruning = false, survival = noPrune)
    val hi = CostModel.estimate(4, 1, dim, listSizes, skewedPop(), 100, 1, params,
      alpha = 5.0, pruning = false, survival = noPrune)
    assert(hi.totalSec > lo.totalSec)
  }

  test("estimate scores the plan deploy builds, naive placement when unbalanced") {
    val pop = skewedPop(hot = 3)
    val on = CostModel.estimate(4, 1, dim, listSizes, pop, 100, 4, params,
      alpha = 1.0, pruning = false, survival = noPrune)
    val deployed = PartitionPlan.build(4, 1, dim,
      PartitionPlan.placementWeights(listSizes, pop), balanced = true)
    assert(on.plan.shardOfCluster.toSeq == deployed.shardOfCluster.toSeq)
    val naive = PartitionPlan.assignShardsNaive(nlist, 4).toSeq
    val off = CostModel.estimate(4, 1, dim, listSizes, pop, 100, 4, params,
      alpha = 1.0, pruning = false, survival = noPrune, balanced = false)
    assert(off.plan.shardOfCluster.toSeq == naive)
    val chosen = CostModel.choose(4, dim, listSizes, pop, 100, 4, params,
      alpha = 1.0, pruning = false, survival = noPrune, balanced = false)
    assert(chosen.bVec == 1 || chosen.plan.shardOfCluster.toSeq ==
      PartitionPlan.assignShardsNaive(nlist, chosen.bVec).toSeq)
  }

  test("estimate prices bDim stages per wave: maxWaves waves pipelined, one without") {
    // free communication and no imbalance term: total = compute + stages
    val noComm = CostParams(byteSeconds = 0.0, msgLatencySeconds = 0.0)
    def stages(pipeline: Boolean): Double = {
      val c = CostModel.estimate(1, 4, dim, listSizes, uniformPop, 100, 4, noComm,
        alpha = 0.0, pruning = false, survival = noPrune, maxWaves = 3, pipeline = pipeline)
      (c.totalSec - c.compMakespanSec) / noComm.stageOverheadSeconds
    }
    assert(math.abs(stages(pipeline = false) - 4) < 1e-6)
    assert(math.abs(stages(pipeline = true) - 12) < 1e-6)
  }

  test("without pipelining communication no longer overlaps compute") {
    def c(pipeline: Boolean) = CostModel.estimate(4, 1, dim, listSizes, uniformPop, 100, 4,
      params, alpha = 0.0, pruning = false, survival = noPrune, maxWaves = 1, pipeline = pipeline)
    val (on, off) = (c(pipeline = true), c(pipeline = false))
    assert(on.commSec == off.commSec && on.commSec > 0)
    val serial = off.compMakespanSec + off.commSec + params.stageOverheadSeconds
    assert(math.abs(off.totalSec - serial) < 1e-15)
    assert(on.totalSec < off.totalSec)
  }

  test("result bytes grow with k") {
    def comm(k: Int): Double = CostModel.estimate(4, 1, dim, listSizes, uniformPop, 100, 4,
      params, alpha = 1.0, pruning = false, survival = noPrune, k = k).commSec
    assert(comm(100) > comm(10) && comm(10) > comm(1))
  }

  // ---- SurvivalStats -------------------------------------------------

  test("none survives everything") {
    val s = SurvivalStats.none(32)
    assert(s.survAtCum(0.9) == 1.0)
    assert(s.arrivalSurv(4, 3) == 1.0)
    assert(s.positionSurv(4, 3) == 1.0)
  }

  test("fromVariances: flat profile declines slowly, decayed faster") {
    val sFlat = SurvivalStats.fromVariances(Array.fill(32)(1.0))
    assert(math.abs(sFlat.survAtCum(0.25) - 0.875) < 1e-9)
    assert(math.abs(sFlat.survAtCum(0.5) - 0.75) < 1e-9)
    val sDec = SurvivalStats.fromVariances(Array.tabulate(32)(i => math.exp(-0.3 * i)))
    assert(sDec.energyCumFrac(8) > sFlat.energyCumFrac(8))
    assert(sDec.sliceEnergy(4, 0) > 0.8)
    assert(sDec.survAtCum(sDec.energyCumFrac(8)) < sFlat.survAtCum(sFlat.energyCumFrac(8)))
  }

  test("sliceEnergy sums to 1 across slices") {
    val s = SurvivalStats.fromVariances(Array.tabulate(20)(i => 1.0 + i))
    val total = (0 until 4).map(s.sliceEnergy(4, _)).sum
    assert(math.abs(total - 1.0) < 1e-9)
  }

  test("arrivalSurv is 1 everywhere for bDim = 1 and without pruning") {
    val s = SurvivalStats.none(16)
    assert(s.arrivalSurv(1, 0) == 1.0)
  }

  test("positionSurv is non-increasing in position") {
    val s = SurvivalStats.fromVariances(Array.tabulate(32)(i => math.exp(-0.1 * i)))
    val ps = (0 until 4).map(s.positionSurv(4, _))
    ps.sliding(2).foreach(w => assert(w(1) <= w(0) + 1e-12, ps.mkString(",")))
  }

  test("popularityOf normalizes over all probes") {
    val pop = CostModel.popularityOf(Seq(Array(0, 1), Array(0, 2)), 4)
    assert(math.abs(pop.sum - 1.0) < 1e-12)
    assert(pop(0) == 0.5 && pop(3) == 0.0)
  }

  test("popularityOf of empty workload is all zeros") {
    assert(CostModel.popularityOf(Seq.empty, 3).forall(_ == 0.0))
  }

  test("choose always has the pure-vector grid available (dim = 1 degenerate)") {
    val c = CostModel.choose(5, 1, Array.fill(nlist)(10), uniformPop, 10, 2, params,
      1.0, pruning = true, survival = SurvivalStats.none(1))
    assert(c.bDim == 1 && c.bVec == 5)
  }
}
