package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core.{BlockStore, CostModel, EngineResult, Harmony, HarmonySystem, Mode}
import repro.ivf.IVFIndex
import repro.linalg.{Hit, Par, VecOps}
import repro.metrics.Recall
import repro.vectors.{Datasets, VectorDataset}

/** What one run measured: metric values by name plus the correctness
  * counts the result line reports. */
final case class Outcome(
    metrics: Seq[(MetricDef, Double)],
    attempted: Long,
    failed: Long,
    notes: Seq[String],
) {
  def correct: Boolean = attempted > 0 && failed == 0
  def value(name: String): Double =
    metrics.find(_._1.name == name).map(_._2)
      .getOrElse(throw new NoSuchElementException(s"metric $name not emitted"))
}

/** Run sizes. The defaults are the benchmark's; the self-test shrinks them. */
final case class Sizes(
    /** timed set-ups, after one untimed cold one */
    setupReps: Int = 3,
    /** the last part of the workload's warm-up, after the full GC of `heap_mb` */
    settleSeconds: Double = 3.0,
    /** distinct queries in the timed stream; the stream wraps after them */
    poolQueries: Int = 1000,
    /** the first timed batches, over which counts and `sim_qps` are taken,
      * so they repeat exactly for a seed; the loop always runs them */
    countBatches: Int = 10,
    recallQueries: Int = 100,
    ivfSearchSeconds: Double = 1.0,
    kernelSeconds: Double = 0.5,
)

/** One benchmark run: set up `wl` several times, warm up, then drive
  * `HarmonySystem.search` from a single closed-loop client for `seconds`.
  *
  * With `trace` the timed loop alternates untraced and traced quarters. The
  * untraced ones are the base of `trace.overhead`; the traced ones set a job
  * group per batch and record Spark jobs, stages and tasks through
  * [[BatchListener]].
  */
final class Bench(spark: SparkSession, wl: Workload, seed: Long, seconds: Double,
                  trace: Boolean, sizes: Sizes = Sizes()) {
  private val sc = spark.sparkContext
  private val cfg = wl.harmonyConfig
  private val tracer = new Tracer
  private val metrics = ArrayBuffer.empty[(MetricDef, Double)]
  private val notes = ArrayBuffer.empty[String]
  private val errors = ArrayBuffer.empty[String]
  private val runStartNano = System.nanoTime()

  /** Where the run's wall time goes, for the human-readable report. */
  private def phaseDone(name: String): Unit =
    notes += f"$name done at ${secs(runStartNano, System.nanoTime())}%.1f s"

  /** Timed queries and the planner's sample come from distinct streams. */
  private val querySeed = seed * 1000003L + 1
  private val sampleSeed = seed * 1000003L + 2

  private def put(name: String, v: Double): Unit = metrics += ((Metrics(name), v))

  private def secs(t0: Long, t1: Long): Double = (t1 - t0) / 1e9

  private final case class BatchRun(poolIdx: Int, startNano: Long, endNano: Long,
                                    result: Option[EngineResult], group: Option[String]) {
    def ms: Double = (endNano - startNano) / 1e6
  }

  def run(spanFile: Option[File] = None): Outcome = {
    val runSpan = tracer.open("run", -1, "run", runStartNano)
    val ds = Datasets.load(wl.dataset)
    val rddsBefore = sc.getPersistentRDDs.keySet.toSet

    // ---- setup, repeated: IVFIndex.build + Harmony.deploy. The first, cold
    // set-up pays for class loading, the JIT and Spark's first jobs, which
    // would spread `setup_s`; it is left out of the set-up metrics.
    val setupS, buildS, planMs, preassignMs = ArrayBuffer.empty[Double]
    var sample: Array[Array[Float]] = null
    var sys: HarmonySystem = null
    (0 to sizes.setupReps).foreach { rep =>
      val timed = rep > 0
      if (sys != null) sys.shutdown()
      val span = tracer.open("setup", runSpan, s"setup-$rep", System.nanoTime())
      val t0 = System.nanoTime()
      val (index, times) = IVFIndex.build(spark, ds, wl.nlist, seed = wl.dataset.seed)
      val t1 = System.nanoTime()
      // the planner's workload sample is benchmark input, not setup
      if (sample == null) sample = wl.queries(ds, index, wl.dataset.nQueries, sampleSeed)
      val t2 = System.nanoTime()
      // as in Experiments: only Mode.Harmony plans from the workload sample
      val deploySample = if (wl.mode == Mode.Harmony) sample else Array.empty[Array[Float]]
      sys = Harmony.deploy(spark, index, cfg, deploySample, times)
      val t3 = System.nanoTime()
      tracer.add("ivf.build", span, s"setup-$rep", t0, t1)
      tracer.add("harmony.deploy", span, s"setup-$rep", t2, t3)
      if (timed) {
        setupS += secs(t0, t1) + secs(t2, t3)
        buildS += secs(t0, t1)
      } else notes += f"cold set-up ${secs(t0, t1) + secs(t2, t3)}%.2f s, not in setup_s"
      if (trace && timed) {
        val p0 = System.nanoTime()
        plan(index, sample)
        val p1 = System.nanoTime()
        val replayed = BlockStore.build(spark, index, sys.plan, cfg.prewarmPerCluster)
        val p2 = System.nanoTime()
        replayed.unpersist()
        tracer.add("core.plan", span, s"setup-$rep", p0, p1)
        tracer.add("core.preassign", span, s"setup-$rep", p1, p2)
        planMs += secs(p0, p1) * 1e3
        preassignMs += secs(p1, p2) * 1e3
      }
      tracer.close(span, System.nanoTime())
    }
    val index = sys.index
    notes += s"set-ups in setup_s: ${setupS.map(v => f"$v%.2f").mkString(" ")} s"
    phaseDone(s"data and ${sizes.setupReps + 1} set-ups")

    // ---- query stream: timed pool, then distinct warm-up batches
    val bs = wl.batchSize
    val poolBatches = math.max(sizes.countBatches, (sizes.poolQueries + bs - 1) / bs)
    val warmBatches = 4
    val all = wl.queries(ds, index, (poolBatches + warmBatches) * bs, querySeed).grouped(bs).toArray
    val pool = all.take(poolBatches)
    val warm = all.drop(poolBatches)

    val f0 = System.nanoTime()
    sys.search(warm(0))
    val firstBatchMs = secs(f0, System.nanoTime()) * 1e3
    var w = 1
    def warmFor(s: Double): Unit = {
      val end = System.nanoTime() + (s * 1e9).toLong
      while (System.nanoTime() < end) { sys.search(warm(w % warmBatches)); w += 1 }
    }
    warmFor(wl.warmSeconds - sizes.settleSeconds)

    val heapMb = {
      val mx = ManagementFactory.getMemoryMXBean
      System.gc(); System.gc()
      mx.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    }
    // the full GC frees every warm-up broadcast and shuffle at once; the
    // last part of the warm-up lets Spark's ContextCleaner delete them
    // before timing rather than during it
    warmFor(sizes.settleSeconds)

    phaseDone("query generation and warm-up")
    // ---- timed closed loop
    val runs = ArrayBuffer.empty[BatchRun]
    /** Run batches for `durSeconds` (and at least `minBatches`); returns
      * the segment's batches and its wall seconds. */
    def loop(durSeconds: Double, minBatches: Int, traced: Boolean): (Seq[BatchRun], Double) = {
      val first = runs.size
      val start = System.nanoTime()
      val deadline = start + (durSeconds * 1e9).toLong
      while (System.nanoTime() < deadline || runs.size - first < minBatches) {
        val poolIdx = runs.size % poolBatches
        val group = if (traced) Some(s"batch-${runs.size}") else None
        group.foreach(g => sc.setJobGroup(g, "perfbench batch", interruptOnCancel = false))
        val t0 = System.nanoTime()
        val res =
          try Some(sys.search(pool(poolIdx)))
          catch {
            case NonFatal(e) =>
              errors += s"batch ${runs.size} threw: $e"
              None
          }
        val t1 = System.nanoTime()
        if (traced) sc.clearJobGroup()
        runs += BatchRun(poolIdx, t0, t1, res, group)
      }
      (runs.drop(first).toSeq, secs(start, System.nanoTime()))
    }

    /** A traced segment: the listener is registered only while it runs. */
    def tracedLoop(durSeconds: Double, listener: BatchListener): (Seq[BatchRun], Double) = {
      sc.addSparkListener(listener)
      val out = loop(durSeconds, 1, traced = true)
      // listener events arrive in order: once a later job has ended, every
      // event of the segment's batches has been seen
      val sentinel = s"perfbench-sentinel-${runs.size}"
      sc.setJobGroup(sentinel, "flush listener events", interruptOnCancel = false)
      sc.parallelize(Seq(1), 1).count()
      sc.clearJobGroup()
      val flushDeadline = System.nanoTime() + 30000000000L
      while (!listener.finished(sentinel) && System.nanoTime() < flushDeadline) Thread.sleep(5)
      sc.removeSparkListener(listener)
      out
    }

    // With tracing, untraced and traced quarters alternate so that drift
    // in machine speed does not bias `trace.overhead`.
    val (untraced, untracedS, traced) =
      if (!trace) {
        val (rs, s) = loop(seconds, sizes.countBatches, traced = false)
        (rs, s, Nil)
      } else {
        val listener = new BatchListener
        val u1 = loop(seconds / 4, sizes.countBatches, traced = false)
        val t1 = tracedLoop(seconds / 4, listener)
        val u2 = loop(seconds / 4, 0, traced = false)
        val t2 = tracedLoop(seconds / 4, listener)
        val tracedRuns = t1._1 ++ t2._1
        recordTraced(tracedRuns, listener, runSpan,
          qps(tracedRuns, t1._2 + t2._2) / qps(u1._1 ++ u2._1, u1._2 + u2._2))
        (u1._1 ++ u2._1, u1._2 + u2._2, tracedRuns)
      }

    phaseDone("timed loop")
    sys.shutdown()
    val leaked = (sc.getPersistentRDDs.keySet -- rddsBefore).size

    // ---- correctness: every timed query against IVFIndex.search
    val usedPool = runs.map(_.poolIdx).distinct.sorted.toArray
    val flat = usedPool.flatMap(p => pool(p).indices.map(i => (p, i)))
    val refHits = mutable.Map.empty[(Int, Int), (Array[Hit], Long)]
    Par.mapChunks(flat.length, (lo, hi) => (lo until hi).map { j =>
      val (p, i) = flat(j)
      val (hits, st) = index.search(pool(p)(i), cfg.k, cfg.nprobe)
      (flat(j), (hits, st.dimOps))
    }).foreach(_.foreach { case (key, v) => refHits(key) = v })

    var wrong = 0L
    var thrown = 0L
    runs.foreach { r =>
      r.result match {
        case None => thrown += bs
        case Some(res) =>
          Checker.checkBatch(pool(r.poolIdx), res.hits, i => refHits((r.poolIdx, i))._1,
            id => ds.data(id.toInt)).foreach { case (i, why) =>
            wrong += 1
            errors += s"pool batch ${r.poolIdx} query $i: $why"
          }
      }
    }
    val attempted = runs.size.toLong * bs
    phaseDone("correctness check")

    // ---- end-to-end metrics (untraced loop)
    put("qps", qps(untraced, untracedS))
    val p90 = Metrics.percentile(untraced.map(_.ms), 90)
    put("batch_ms_p50", Metrics.median(untraced.map(_.ms)))
    put("batch_ms_p90", p90)
    val counted = runs.take(sizes.countBatches).toSeq
    val reports = counted.flatMap(_.result).map(_.report)
    val countedQ = reports.map(_.nQueries.toLong).sum.toDouble
    put("sim_qps", countedQ / reports.map(_.totalSeconds).sum)
    put("recall_at_10", recall(ds, pool, runs.toSeq))
    put("query_error_rate", (wrong + thrown).toDouble / attempted)
    put("setup_s", Metrics.median(setupS.toSeq))
    put("heap_mb", heapMb)
    notes += s"queries attempted $attempted, wrong top-10 $wrong, in failed batches $thrown"
    notes += s"timed batches ${untraced.size} untraced" +
      (if (trace) s", ${traced.size} traced" else "") +
      s" (${untraced.count(_.ms > p90)} beyond p90)"
    notes += {
      // a warm-up too short for the JIT shows as a slower first half
      val (h1, h2) = untraced.splitAt(untraced.size / 2)
      f"median batch ${Metrics.median(h1.map(_.ms))}%.1f ms in the first half of the timed " +
        f"loop, ${Metrics.median(h2.map(_.ms))}%.1f ms in the second"
    }

    // ---- per-layer counts (exact for a seed: the fixed prefix of batches)
    val results = counted.flatMap(_.result)
    val ivfOps = counted.flatMap(r => pool(r.poolIdx).indices.map(i => refHits((r.poolIdx, i))._2)).sum
    val engineOps = reports.map(_.totalDimOps).sum.toDouble
    put("ivf.dimops_per_query", ivfOps / countedQ)
    put("ivf.build_s", Metrics.median(buildS.toSeq))
    put("core.plan_bdim", sys.plan.bDim)
    put("core.node_storage_mb_max", sys.store.maxNodeStorageBytes / (1024.0 * 1024.0))
    put("core.plan_load_err", loadError(index, sample, sys, reports.map(_.perNodeDimOps), countedQ))
    put("engine.dimops_per_query", engineOps / countedQ)
    put("engine.dimops_vs_ivf", engineOps / ivfOps)
    put("engine.prune_frac",
      results.map(_.prunePruned.sum).sum.toDouble / results.map(_.pruneEntering.sum).sum)
    put("engine.load_cv", cv(reports.map(_.perNodeDimOps).transpose.map(_.sum.toDouble)))
    put("engine.sim_bytes_per_query", reports.map(_.totalBytes).sum / countedQ)
    put("engine.sim_msgs_per_query", reports.map(_.totalMsgs).sum / countedQ)
    put("engine.leaked_rdds", leaked)
    put("sim.comp_ms_per_batch", Metrics.mean(reports.map(_.compSeconds * 1e3)))
    put("sim.comm_ms_per_batch", Metrics.mean(reports.map(_.commSeconds * 1e3)))
    put("sim.other_ms_per_batch", Metrics.mean(reports.map(_.otherSeconds * 1e3)))

    // ---- per-layer timings of single modules (traced run only)
    if (trace) {
      val timedQs = usedPool.flatMap(p => pool(p))
      put("linalg.l2_gdimops_s", kernelGdimops(index, sys, timedQs))
      put("linalg.route_us_per_query", {
        val t0 = System.nanoTime()
        timedQs.foreach(q => VecOps.nearestN(q, index.centroids, cfg.nprobe))
        secs(t0, System.nanoTime()) * 1e6 / timedQs.length
      })
      put("ivf.search_qps", {
        val t0 = System.nanoTime()
        val end = t0 + (sizes.ivfSearchSeconds * 1e9).toLong
        var n = 0
        while (n < timedQs.length && (n < 10 || System.nanoTime() < end)) {
          index.search(timedQs(n), cfg.k, cfg.nprobe)
          n += 1
        }
        n / secs(t0, System.nanoTime())
      })
      put("core.plan_ms", Metrics.median(planMs.toSeq))
      put("core.preassign_ms", Metrics.median(preassignMs.toSeq))
      put("engine.first_batch_ms", firstBatchMs)
    }

    phaseDone("run")
    tracer.close(runSpan, System.nanoTime())
    spanFile.foreach { f =>
      tracer.write(f)
      notes += s"spans written to $f"
    }
    if (trace) notes ++= selfTimeSummary
    Outcome(metrics.toSeq, attempted, wrong + thrown, errors.take(10).toSeq ++ notes)
  }

  /** The planner's inputs exactly as `Harmony.deploy` derives them. */
  private def planInputs(index: IVFIndex, sample: Array[Array[Float]]) = {
    val probes = sample.map(q => VecOps.nearestN(q, index.centroids, cfg.nprobe))
    (CostModel.popularityOf(probes.toSeq, index.nlist),
      CostModel.SurvivalStats.fromData(index, sample, k = cfg.k))
  }

  /** Replay the planner (`SurvivalStats.fromData` + `CostModel.choose`). */
  private def plan(index: IVFIndex, sample: Array[Array[Float]]): CostModel.PlanCost = {
    val (popularity, survival) = planInputs(index, sample)
    CostModel.choose(cfg.nNodes, index.dim, index.listSizes, popularity,
      nQ = math.max(1, sample.length), nprobe = cfg.nprobe, params = cfg.costParams,
      alpha = cfg.alpha, pruning = cfg.pruning, survival = survival)
  }

  /** Mean |estimated - measured| / measured per-node load, with the cost
    * model's estimate for the deployed grid scaled to the counted queries. */
  private def loadError(index: IVFIndex, sample: Array[Array[Float]], sys: HarmonySystem,
                        perNode: Seq[Array[Long]], nQ: Double): Double = {
    val (popularity, survival) = planInputs(index, sample)
    val est = CostModel.estimate(sys.plan.bVec, sys.plan.bDim, index.dim, index.listSizes,
      popularity, nQ = math.max(1, sample.length), nprobe = cfg.nprobe, params = cfg.costParams,
      alpha = cfg.alpha, pruning = cfg.pruning, survival = survival).perNodeLoadOps
    val scale = nQ / math.max(1, sample.length)
    val measured = perNode.transpose.map(_.sum.toDouble)
    Metrics.mean(measured.indices.map(n =>
      math.abs(est(n) * scale - measured(n)) / math.max(1.0, measured(n))))
  }

  private def qps(rs: Seq[BatchRun], wallS: Double): Double = rs.size.toDouble * wl.batchSize / wallS

  private def cv(xs: Seq[Double]): Double = {
    val mu = Metrics.mean(xs)
    if (mu == 0) 0.0 else math.sqrt(Metrics.mean(xs.map(x => (x - mu) * (x - mu)))) / mu
  }

  /** Mean recall@10 of the first `recallQueries` pool queries (always in
    * the counted prefix) against brute-force ground truth. */
  private def recall(ds: VectorDataset, pool: Array[Array[Array[Float]]],
                     runs: Seq[BatchRun]): Double = {
    val bs = wl.batchSize
    val nb = math.min(pool.length, (sizes.recallQueries + bs - 1) / bs)
    val qs = pool.take(nb).flatten
    val truth = Recall.groundTruth(ds, qs, Workload.K)
    val got = (0 until nb).flatMap { p =>
      runs.find(_.poolIdx == p).flatMap(_.result).map(_.hits.toSeq)
        .getOrElse(Seq.fill(bs)(Array.empty[Hit]))
    }.toArray
    Recall.meanRecall(got, truth, Workload.K)
  }

  /** Single-thread `VecOps.l2PartialAt` over every indexed row, cut into the
    * deployed plan's dimension slices. */
  private def kernelGdimops(index: IVFIndex, sys: HarmonySystem,
                            queries: Array[Array[Float]]): Double = {
    val plan = sys.plan
    val dim = index.dim
    var sink = 0.0
    def pass(q: Array[Float]): Long = {
      var ops = 0L
      var c = 0
      while (c < index.nlist) {
        val data = index.listData(c)
        val rows = index.listSize(c)
        var s = 0
        while (s < plan.bDim) {
          val lo = plan.sliceLo(s)
          val len = plan.sliceLen(s)
          var r = 0
          while (r < rows) { sink += VecOps.l2PartialAt(q, lo, data, r * dim + lo, len); r += 1 }
          ops += rows.toLong * len
          s += 1
        }
        c += 1
      }
      ops
    }
    pass(queries(0)); pass(queries(1 % queries.length))
    val t0 = System.nanoTime()
    val end = t0 + (sizes.kernelSeconds * 1e9).toLong
    var ops = 0L
    var i = 0
    while (System.nanoTime() < end) { ops += pass(queries(i % queries.length)); i += 1 }
    val g = ops / secs(t0, System.nanoTime()) / 1e9
    if (sink.isNaN) notes += "kernel produced NaN"
    notes += f"linalg.l2_gdimops_s next to CostParams.dimOpSeconds: model assumes " +
      f"${1.0 / cfg.costParams.dimOpSeconds / 1e9}%.1f Gdimop/s"
    g
  }

  /** Batch and Spark-job spans plus the listener's per-batch Spark metrics. */
  private def recordTraced(batches: Seq[BatchRun], listener: BatchListener, runSpan: Int,
                           overhead: Double): Unit = {
    val perBatch = batches.map { b =>
      val trace = b.group.get
      val span = tracer.add("batch", runSpan, trace, b.startNano, b.endNano)
      val st = listener.get(trace).getOrElse(new GroupStats)
      st.jobs.foreach { case (_, s, e) =>
        tracer.addEpoch("spark.job", span, trace, s * 1000000L, e * 1000000L)
      }
      (tracer.all(span), st)
    }
    val self = tracer.selfTimes
    def per(f: GroupStats => Double): Double = Metrics.mean(perBatch.map(p => f(p._2)))
    put("engine.jobs_per_batch", per(_.jobs.size))
    put("engine.stages_per_batch", per(_.stages))
    put("engine.tasks_per_batch", per(_.tasks))
    put("engine.driver_ms_per_batch", Metrics.mean(perBatch.map(p => self(p._1.id) / 1e6)))
    // the union of a batch's job spans is whatever of the batch is not self time
    put("engine.job_ms_per_batch",
      Metrics.mean(perBatch.map(p => (p._1.durNs - self(p._1.id)) / 1e6)))
    put("engine.task_run_ms_per_batch", per(_.taskRunMs))
    put("engine.task_cpu_ms_per_batch", per(_.taskCpuNs / 1e6))
    put("engine.task_deser_ms_per_batch", per(_.taskDeserMs))
    put("engine.gc_ms_per_batch", per(_.gcMs))
    put("engine.task_wait_ms_per_batch", per(_.taskWaitMs))
    put("engine.shuffle_write_mb_per_batch", per(_.shuffleWriteBytes / (1024.0 * 1024.0)))
    put("engine.fetch_wait_ms_per_batch", per(_.fetchWaitMs))
    put("trace.overhead", overhead)
  }

  /** Total self time per span name, for the human-readable report. */
  private def selfTimeSummary: Seq[String] = {
    val self = tracer.selfTimes
    tracer.all.groupBy(_.name).toSeq.sortBy(_._1).map { case (name, ss) =>
      f"self time $name%-16s ${ss.map(s => self(s.id)).sum / 1e6}%12.1f ms over ${ss.size} spans"
    }
  }
}
