#!/usr/bin/env python3
"""The repo benchmark: ADAPT end to end on cloud, ycsb-dense and proto.

    python3 perfbench/run.py [--workload cloud|ycsb-dense|proto] [--seed N]
                             [--seconds S] [--trace 0|1] [--scale full|smoke]
                             [--manifest-dir DIR]

Builds the benchmark (perfbench/CMakeLists.txt, Release) into .bench_build at
the repository root, then runs each workload in its own process. With no
--workload it runs all three in turn. Every metric is printed as
"metric <name> <value> <unit>"; the last line of a workload's output is its
JSON result: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ledger. The exit code is 0
only when every run completed and passed every correctness check.
See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BUILD = os.path.join(ROOT, ".bench_build")
EXECUTABLE = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; a process still running this long is hung.
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the executable; exits 2 when that fails."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)]]
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(2)


def unique_keys(pairs):
    """JSON object hook that rejects a key given twice."""
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError("duplicate key in %s" % keys)
    return dict(pairs)


def conform(result, section):
    """Checks the metrics against BENCHMARK.json's list for `section` and
    puts them in its order. Returns the problems found."""
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    got = result["metrics"]
    problems = ["undeclared metric %s" % n for n in got if n not in declared]
    metrics = {}
    for name, unit in declared.items():
        if name not in got:
            problems.append("missing metric %s" % name)
        elif got[name]["unit"] != unit:
            problems.append("metric %s in %s, not %s"
                            % (name, got[name]["unit"], unit))
        else:
            metrics[name] = got[name]
    result["metrics"] = metrics
    return problems


def run_workload(args, workload):
    """Runs one workload in its own process; returns True if it passed."""
    cmd = [EXECUTABLE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (workload, args.seed))]
    if args.manifest_dir:
        cmd += ["--manifest-dir", args.manifest_dir]
    env = dict(os.environ)
    # Audit tiers and live stats change what a run does; keep them off.
    env.pop("ADAPT_AUDIT", None)
    env.pop("ADAPT_LIVE_STATS", None)

    attempted = 0
    result = None
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        sys.stderr.write("perfbench: %s timed out\n" % workload)
    for line in out.splitlines():
        if line.startswith("attempted "):
            attempted = int(line.split()[1])
        elif line.startswith("{"):
            try:
                result = json.loads(line, object_pairs_hook=unique_keys)
            except ValueError as e:
                sys.stderr.write("perfbench: bad result line: %s\n" % e)
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        sys.stderr.write("perfbench: %s exited with %d\n"
                         % (workload, proc.returncode))
    if result is None:
        # A crash or hang counts every op the run attempted as failed.
        attempted = max(attempted, 1)
        result = {"correct": False, "attempted": attempted,
                  "failed": attempted, "metrics": {}}
    else:
        problems = conform(result, "per_layer" if args.trace else "end_to_end")
        for p in problems:
            sys.stderr.write("perfbench: %s: %s\n" % (workload, p))
        result["correct"] = result["correct"] and not problems
    print("info failed_share %.17g ratio"
          % (result["failed"] / max(result["attempted"], 1)))
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode == 0 and result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--manifest-dir",
                        help="also write each run's validated manifests here")
    args = parser.parse_args()
    build()
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        ok = run_workload(args, workload) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
