package repro.perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.scheduler._

/** One traced interval. Times are epoch nanoseconds; `parent` is -1 for a
  * root span. Spans of one batch share its `trace` id. */
final case class Span(id: Int, parent: Int, trace: String, name: String,
                      startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span store, written out once when the run ends. */
final class Tracer {
  private val spans = ArrayBuffer.empty[Span]
  private val anchorEpochNs = System.currentTimeMillis() * 1000000L
  private val anchorNano = System.nanoTime()

  /** Map a `System.nanoTime` reading onto the epoch clock Spark events use. */
  def epochNs(nano: Long): Long = anchorEpochNs + (nano - anchorNano)

  /** Record a span from two `System.nanoTime` readings; returns its id. */
  def add(name: String, parent: Int, trace: String, startNano: Long, endNano: Long): Int =
    addEpoch(name, parent, trace, epochNs(startNano), epochNs(endNano))

  /** Start a span whose end is not known yet; finish it with [[close]]. */
  def open(name: String, parent: Int, trace: String, startNano: Long): Int =
    add(name, parent, trace, startNano, startNano)

  def close(id: Int, endNano: Long): Unit =
    spans(id) = spans(id).copy(endNs = epochNs(endNano))

  def addEpoch(name: String, parent: Int, trace: String, startNs: Long, endNs: Long): Int = {
    val id = spans.size
    spans += Span(id, parent, trace, name, startNs, endNs)
    id
  }

  def all: Seq[Span] = spans.toSeq

  /** Self time of every span: its duration minus the part its children cover. */
  def selfTimes: Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map(s => s.id -> Tracer.selfNs(s, children.getOrElse(s.id, Nil).toSeq)).toMap
  }

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val self = selfTimes
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(
        s"""{"id":${s.id},"parent":${s.parent},"trace":"${s.trace}","name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"self_ns":${self(s.id)}}""")
    } finally out.close()
  }
}

object Tracer {
  /** Total length covered by a set of half-open intervals. */
  def unionNs(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curLo = Long.MinValue
    var curHi = Long.MinValue
    intervals.filter(i => i._2 > i._1).sortBy(_._1).foreach { case (lo, hi) =>
      if (lo > curHi) {
        if (curHi > curLo) total += curHi - curLo
        curLo = lo; curHi = hi
      } else if (hi > curHi) curHi = hi
    }
    if (curHi > curLo) total += curHi - curLo
    total
  }

  /** `span`'s duration minus the union of its children clipped to it. */
  def selfNs(span: Span, children: Seq[Span]): Long =
    span.durNs - unionNs(children.map(c =>
      (math.max(c.startNs, span.startNs), math.min(c.endNs, span.endNs))))
}

/** Spark-side measurements of the jobs run under one job group (one batch). */
final class GroupStats {
  /** (jobId, start epoch ms, end epoch ms); end is -1 until the job ends */
  val jobs = ArrayBuffer.empty[(Int, Long, Long)]
  var stages = 0
  var tasks = 0
  var taskRunMs = 0L
  var taskCpuNs = 0L
  var taskDeserMs = 0L
  var gcMs = 0L
  var taskWaitMs = 0L
  var shuffleWriteBytes = 0L
  var fetchWaitMs = 0L
}

/** Attributes Spark jobs, stages and tasks to the job group that was set on
  * the submitting thread. Events arrive on Spark's listener-bus thread, so
  * every access is synchronized. */
final class BatchListener extends SparkListener {
  private val groups = mutable.Map.empty[String, GroupStats]
  private val groupOfJob = mutable.Map.empty[Int, String]
  private val groupOfStage = mutable.Map.empty[Int, String]
  private val stageSubmitMs = mutable.Map.empty[Int, Long]

  private def stats(group: String): GroupStats = groups.getOrElseUpdate(group, new GroupStats)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty(BatchListener.GroupKey)))
    group.foreach { g =>
      groupOfJob(e.jobId) = g
      e.stageIds.foreach(groupOfStage(_) = g)
      stats(g).jobs += ((e.jobId, e.time, -1L))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    groupOfJob.remove(e.jobId).foreach { g =>
      val js = stats(g).jobs
      val i = js.indexWhere(_._1 == e.jobId)
      js(i) = js(i).copy(_3 = e.time)
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    groupOfStage.get(e.stageInfo.stageId).foreach { g =>
      stats(g).stages += 1
      stageSubmitMs(e.stageInfo.stageId) = e.stageInfo.submissionTime.getOrElse(0L)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    groupOfStage.get(e.stageId).foreach { g =>
      val s = stats(g)
      s.tasks += 1
      s.taskWaitMs += math.max(0L, e.taskInfo.launchTime - stageSubmitMs.getOrElse(e.stageId,
        e.taskInfo.launchTime))
      val m = e.taskMetrics
      if (m != null) {
        s.taskRunMs += m.executorRunTime
        s.taskCpuNs += m.executorCpuTime
        s.taskDeserMs += m.executorDeserializeTime
        s.gcMs += m.jvmGCTime
        s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        s.fetchWaitMs += m.shuffleReadMetrics.fetchWaitTime
      }
    }
  }

  /** True once every job of `group` has ended. */
  def finished(group: String): Boolean = synchronized {
    groups.get(group).exists(s => s.jobs.nonEmpty && s.jobs.forall(_._3 >= 0))
  }

  def get(group: String): Option[GroupStats] = synchronized(groups.get(group))
}

object BatchListener {
  /** The local property `SparkContext.setJobGroup` sets. */
  val GroupKey = "spark.jobGroup.id"
}
