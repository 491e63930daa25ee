#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload W ...] [--out FILE]
                                    [--values FILE] [--against FILE]

Runs perfbench/run.py --trace 0 once per seed (seeds first-seed, first-seed
+ 1, ...) on each workload, for BENCHMARK.json's run_seconds. For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, beside the metric's bound. A spread at or above a third of the
bound is marked "WIDE". --values writes the measured values as JSON;
--against reads such a file from an earlier set and prints by how much this
set's median is worse than that set's, as a share of the earlier median,
marked "WORSE" beyond the bound. Exits 1 if any run fails, any spread is
wide or any median is worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def measure(bench, workload, seeds):
    """Runs the workload once per seed; returns ({metric: values}, ok)."""
    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False}
        if proc.returncode != 0 or not result["correct"]:
            ok = False
            print("%s seed %d FAILED" % (workload, seed), flush=True)
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("%s seed %d %s" % (workload, seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
    return values, ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", help="also write the report here")
    parser.add_argument("--values", help="write the measured values here")
    parser.add_argument("--against", help="values of an earlier set")
    args = parser.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    report = []
    measured = {}
    ok = True
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workload or names:
        values, ran = measure(bench, workload, seeds)
        measured[workload] = values
        ok = ok and ran
        report.append("workload %s (%d runs, seeds %d..%d)" % (
            workload, args.runs, seeds[0], seeds[-1]))
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            report.append("  %-12s values %s" % (
                m["name"], " ".join("%.6g" % x for x in v)))
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            wide = spread >= m["bound"] / 3
            ok = ok and not wide
            line = ("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                    " bound %.2f%s" % (m["name"], med, q1, q3, spread,
                                       m["bound"], "  WIDE" if wide else ""))
            before = earlier.get(workload, {}).get(m["name"])
            if before:
                base = statistics.median(before)
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (statistics.median(v) - base) / base
                ok = ok and worse <= m["bound"]
                line += "  vs earlier median %.6g: worse by %+.4f%s" % (
                    base, worse, "  WORSE" if worse > m["bound"] else "")
            report.append(line)
    text = "\n".join(report) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    if args.values:
        with open(args.values, "w") as f:
            json.dump(measured, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
