#!/usr/bin/env python3
# Copyright 2026 The fairidx Authors.
# Licensed under the Apache License, Version 2.0.
"""Smoke-size self-test of the end-to-end benchmark.

Run from the root of a source tree:

  python3 e2e_bench/selftest.py

Runs every workload at tiny scale, untraced and traced, and checks that:
  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * every correctness check passed and no operation failed;
  * the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) list, with the same units, all finite, and every
    end-to-end value above zero;
  * the input checksums repeat for the same seed and change with it;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the command fails without printing a result.
Exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Every workload fairidx_e2e runs; BENCHMARK.json gates a subset of them.
WORKLOADS = ("ingest_durable", "serve_zipf", "refine_drift", "paper_batch")


def run(workload, seed, trace, cwd=ROOT):
    command = ["python3", "e2e_bench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "0.2", "--trace",
               str(trace), "--scale", "smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def check_result(bench, workload, trace, done):
    if done.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace,
                                              done.returncode, done.stderr))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s trace=%d: checks failed:\n%s" % (workload, trace,
                                                  done.stdout))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted %r" % (workload, result["attempted"]))
    expected = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in expected]:
        missing = {m["name"] for m in expected} ^ set(metrics)
        fail("%s trace=%d: metric names differ: %s" % (workload, trace,
                                                       sorted(missing)))
    for definition in expected:
        metric = metrics[definition["name"]]
        value = metric["value"]
        if metric["unit"] != definition["unit"] or not math.isfinite(value):
            fail("%s: bad metric %s %r" % (workload, definition["name"],
                                           metric))
        if not trace and value <= 0:
            fail("%s: end-to-end metric %s is %r" % (workload,
                                                     definition["name"],
                                                     value))


def checksums(done):
    return [line for line in done.stdout.splitlines()
            if line.startswith("note") and "checksum" in line]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    gated = [w["name"] for w in bench["workloads"]]
    if not set(gated) <= set(WORKLOADS):
        fail("BENCHMARK.json names unknown workloads: %s" % gated)
    for workload in WORKLOADS:
        untraced = run(workload, 1, 0)
        check_result(bench, workload, 0, untraced)
        traced = run(workload, 1, 1)
        check_result(bench, workload, 1, traced)
        other_seed = run(workload, 2, 0)
        check_result(bench, workload, 0, other_seed)
        if not checksums(untraced) or checksums(untraced) != checksums(traced):
            fail("%s: inputs differ for one seed" % workload)
        if checksums(untraced) == checksums(other_seed):
            fail("%s: inputs do not depend on the seed" % workload)
        print("selftest: %s ok" % workload)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    done = subprocess.run(["python3", "e2e_bench/run.py", "--workload",
                           gated[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=180,
                          env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail("the benchmark ran without the source tree")
    print("selftest: bare directory fails as expected")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
