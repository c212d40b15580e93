#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all --seed <n>
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --where --seed <n>

The first form builds the colgraph library from src/ together with the
benchmark program (CMake, Release, into .bench_build/perfbench), runs the
workload, prints a human-readable summary and, as the last line of stdout,
one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. The full result (every metric with
its sample count and what it should move, and every workload parameter)
is kept in .bench_build/perfbench-out/. The exit code is 0 only when every
answer was right, the traced run's deterministic counts repeated and no
traced parent span was significantly shorter on average than its
children.

--workload all runs every workload in turn and prints one verdict line per
workload. --selftest builds and runs the benchmark's own unit tests. --where runs the
traced run of every workload and rewrites perfbench/WHERE_TIME_GOES.md.

Claims of a gain must also hold on the holdout seed HOLDOUT_SEED, which no
change should be tuned on.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HOLDOUT_SEED = 7919
WORKLOADS = ("engine_fig6", "serve_read", "serve_ingest")
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("colgraph sources (src/CMakeLists.txt) not found; run from a "
             "full checkout of the repository")
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target]
    if subprocess.run(command, cwd=ROOT, stdout=sys.stderr).returncode:
        fail(f"build of {target} failed")
    return os.path.join(ROOT, BUILD_DIR, target)


def run_workload(binary, workload, seed, seconds, trace):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", OUT_DIR]
    try:
        code = subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
    if code != 0:
        fail(f"colbench exited with code {code}")
    path = os.path.join(ROOT, OUT_DIR,
                        f"result-{workload}-{seed}-{trace}.json")
    with open(path) as f:
        return json.load(f)


def verdict(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    missing = []
    for entry in wanted:
        metric = result["metrics"].get(entry["name"])
        if metric is None:
            missing.append(entry["name"])
            continue
        metrics[entry["name"]] = {"value": metric["value"],
                                  "unit": metric["unit"]}
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}",
              file=sys.stderr)
    correct = (result["failed"] == 0 and not missing
               and result["counts_repeat"]
               and result["unattributed_nonnegative"])
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def write_where(binary, seed):
    sections = []
    for workload in WORKLOADS:
        result = run_workload(binary, workload, seed, 1, 1)
        sections.append(result["where_table"])
    path = os.path.join(HERE, "WHERE_TIME_GOES.md")
    with open(path, "w") as f:
        f.write("# Where the time goes\n\n"
                "Self time per request of each layer, from the traced run "
                f"(`python3 perfbench/run.py --where --seed {seed}`). "
                "A span's time is the minimum over its repetitions; its "
                "self time is that minus its children's. The share is of "
                "the outermost span. See README.md for how each layer is "
                f"timed. Measured on {platform.machine()}, "
                f"{os.cpu_count()} CPUs, Release build.\n\n")
        f.write("\n".join(sections))
    print(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--where", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("colbench_selftest")
        sys.exit(subprocess.run([binary], cwd=os.path.dirname(binary),
                                timeout=RUN_TIMEOUT_S).returncode)
    binary = build("colbench")
    if args.where:
        write_where(binary, args.seed)
        return
    if args.workload is None:
        fail("--workload is required")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in workloads:
        result = run_workload(binary, workload, args.seed, args.seconds,
                              args.trace)
        line = verdict(result, args.trace)
        sys.stdout.flush()
        print(json.dumps(line), flush=True)
        all_correct = all_correct and line["correct"]
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
