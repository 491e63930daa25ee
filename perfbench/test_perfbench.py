#!/usr/bin/env python3
"""Tests of the repo benchmark, run at smoke scale.

    python3 perfbench/test_perfbench.py [-v]

They build the benchmark through run.py like a benchmark run does, so the
first test pays for the build.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXECUTABLE = os.path.join(BUILD, "perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SIM_WORKLOADS = ["cloud", "ycsb-dense"]
# Per-layer metrics that must be measured (non-zero) on a workload's path,
# even at smoke scale.
ON_PATH = {
    "cloud": ["trace.records", "sim.queue.ns_per_record",
              "adapt.place_user.ns", "adapt.adapter.ns",
              "adapt.deadline.calls", "lss.write.p99_ns", "lss.read.ns",
              "lss.self.ns_per_record", "lss.gc.runs", "lss.gc.ns_per_block",
              "lss.victim.select_ns", "lss.chunk.flushes",
              "array.bytes_per_user_byte", "sim.unexplained_share"],
    "ycsb-dense": ["trace.records", "sim.queue.ns_per_record",
                   "adapt.place_user.ns", "lss.write.p99_ns", "lss.read.ns",
                   "lss.self.ns_per_record", "lss.chunk.flushes"],
    "proto": ["lss.chunk.flushes", "lss.group_commit.mean_batch",
              "lss.device_lanes.submits", "lss.device_lanes.service_p99_us",
              "proto.write_p99_us", "proto.write_samples"],
}


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    """Runs run.py at smoke scale; returns (exit code, stdout lines)."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def info(lines, key):
    """Value of the "info <key> <value> ..." line."""
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "info" and parts[1] == key:
            return parts[2]
    raise AssertionError("no info %s line" % key)


def bump_padding(manifest):
    """Breaks the write-accounting identity."""
    manifest["provenance"]["groups"][0]["padding"] += 1


def bump_lane_queue_sum(manifest):
    """Breaks the latency-breakdown additivity identity."""
    manifest["latency_breakdown"]["lane_queue_us"]["sum"] += 1


class BenchmarkTest(unittest.TestCase):

    def test_each_workload_prints_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run(workload, trace=trace)
                    self.assertEqual(code, 0, "\n".join(lines))
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"]
                                for m in BENCH[section]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, unit in expected.items():
                        pattern = r"^metric %s +\S+ %s$" % (
                            re.escape(name), re.escape(unit))
                        self.assertTrue(
                            any(re.match(pattern, l) for l in lines),
                            "no printed line for %s" % name)
                    must_measure = expected if trace == 0 else \
                        ON_PATH[workload]
                    for name in must_measure:
                        self.assertGreater(
                            result["metrics"][name]["value"], 0, name)

    def test_wa_and_padding_repeat_exactly_for_a_seed(self):
        for workload in SIM_WORKLOADS:
            with self.subTest(workload=workload):
                runs = [run(workload, seed=7) for _ in range(2)]
                for code, lines in runs:
                    self.assertEqual(code, 0, "\n".join(lines))
                (_, a), (_, b) = runs
                wa = [json.loads(l[-1])["metrics"]["wa"]["value"]
                      for l in (a, b)]
                self.assertEqual(wa[0], wa[1])
                self.assertEqual(info(a, "padding_ratio"),
                                 info(b, "padding_ratio"))
                self.assertEqual(info(a, "inputs"), info(b, "inputs"))

    def test_a_different_seed_changes_the_inputs(self):
        for workload in SIM_WORKLOADS:
            with self.subTest(workload=workload):
                digests = set()
                for seed in (7, 8):
                    code, lines = run(workload, seed=seed)
                    self.assertEqual(code, 0, "\n".join(lines))
                    digests.add(info(lines, "inputs"))
                self.assertEqual(len(digests), 2)
        # The prototype's clients generate their own streams from the
        # seed; the manifest records which seed they used.
        os.makedirs(BUILD, exist_ok=True)
        seeds = []
        for seed in (7, 8):
            with tempfile.TemporaryDirectory(dir=BUILD) as d:
                code, lines = run("proto", seed=seed,
                                  extra=["--manifest-dir", d])
                self.assertEqual(code, 0, "\n".join(lines))
                with open(os.path.join(d, "proto.json")) as f:
                    seeds.append(json.load(f)["seed"])
        self.assertEqual(seeds, [7, 8])

    def test_a_tampered_manifest_is_rejected(self):
        os.makedirs(BUILD, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD) as d:
            for workload in ("ycsb-dense", "proto"):
                code, lines = run(workload, extra=["--manifest-dir", d])
                self.assertEqual(code, 0, "\n".join(lines))
            for name, tamper in (("ycsb-dense-ycsb.json", bump_padding),
                                 ("proto.json", bump_lane_queue_sum)):
                with self.subTest(manifest=name):
                    path = os.path.join(d, name)
                    check = [EXECUTABLE, "check-manifest", path]
                    with open(path) as f:
                        manifest = json.load(f)
                    with open(path, "w") as f:
                        json.dump(manifest, f)
                    self.assertEqual(subprocess.call(
                        check, stdout=subprocess.DEVNULL), 0)
                    tamper(manifest)
                    with open(path, "w") as f:
                        json.dump(manifest, f)
                    self.assertEqual(subprocess.call(
                        check, stdout=subprocess.DEVNULL), 1)

    def test_without_the_library_sources_it_fails_without_a_result(self):
        os.makedirs(BUILD, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run("proto", cwd=d)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
