package repro.perfbench

import java.io.File

import org.apache.spark.sql.SparkSession

/** Entry point: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * [--spans <file>]`.
  *
  * Prints one `name value unit` line per metric, the run's notes, and as
  * its last line a JSON object with every metric it measured.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def opt(k: String): String =
      opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workload.byName(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    require(seconds > 0, s"--seconds must be positive: $seconds")

    val spark = session(s"perfbench-${wl.name}")
    try {
      val out = new Bench(spark, wl, seed, seconds, trace).run(opts.get("spans").map(new File(_)))
      report(wl.name, seed, trace, out)
    } finally spark.stop()
  }

  /** Local Spark with at most [[Workload.Nodes]] worker threads, one per
    * simulated node. Scratch files go to `SPARK_LOCAL_DIRS`. */
  def session(app: String): SparkSession = {
    val cores = math.min(Workload.Nodes, Runtime.getRuntime.availableProcessors())
    SparkSession.builder
      .master(s"local[$cores]")
      .appName(app)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
  }

  def report(workload: String, seed: Long, trace: Boolean, out: Outcome): Unit = {
    println(s"perfbench workload=$workload seed=$seed trace=${if (trace) 1 else 0}")
    out.metrics.foreach { case (d, v) => println(f"  ${d.name}%-36s $v%16.6f ${d.unit}") }
    out.notes.foreach(n => println(s"  # $n"))
    println(json(out))
  }

  def json(out: Outcome): String = {
    def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
    val ms = out.metrics.map { case (d, v) =>
      s""""${d.name}": {"value": ${num(v)}, "unit": "${d.unit}"}"""
    }
    s"""{"correct": ${out.correct}, "attempted": ${out.attempted}, "failed": ${out.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}
