#!/usr/bin/env python3
"""Wall-clock serving benchmark for the Harmony engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the program and the benchmark from source (see build.py), then runs
one workload in a JVM with local Spark. The JVM prints one line per metric;
the last line printed here is a JSON object holding the metrics that
BENCHMARK.json declares: its end_to_end list with --trace 0, its per_layer
list with --trace 1. Build outputs, Spark scratch files and span files go to
$CARGO_TARGET_DIR (default .bench_build) under the checkout root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import build  # noqa: E402

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def jvm(classpath, out_dir, main, args):
    """Run `main`; its temporary and Spark scratch files stay in out_dir."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(out_dir, "spark-local"))
    cmd = [build.java(), "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-cp", classpath, main] + args
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="length of the timed loop (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        classpath = build.ensure_built(ROOT, out_dir, BUILD_TIMEOUT_S)
    except build.BuildError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    if args.self_test:
        proc = jvm(classpath, out_dir, "repro.perfbench.SelfTest", [])
        sys.stdout.write(proc.stdout)
        return proc.returncode

    jargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        jargs += ["--spans", os.path.join(out_dir, "spans", "%s-seed%d.jsonl"
                                          % (args.workload, args.seed))]
    proc = jvm(classpath, out_dir, "repro.perfbench.Main", jargs)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(l for l in lines if not l.startswith("{")))
        print("perfbench: run failed with exit code %d" % proc.returncode, file=sys.stderr)
        return proc.returncode

    result = json.loads(lines[-1])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    bad = [m["name"] for m in wanted
           if (result["metrics"].get(m["name"]) or {}).get("value") is None
           or result["metrics"][m["name"]]["unit"] != m["unit"]]
    if bad:
        print("\n".join(lines[:-1]))
        print("perfbench: no value, or another unit, for %s" % ", ".join(bad), file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
