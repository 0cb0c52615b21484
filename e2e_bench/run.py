#!/usr/bin/env python3
# Copyright 2026 The fairidx Authors.
# Licensed under the Apache License, Version 2.0.
"""Builds and runs one workload of the fairidx end-to-end benchmark.

Run from the root of a source tree:

  python3 e2e_bench/run.py --workload ingest_durable --seed 1 \
      --seconds 10 --trace 0 [--scale full|smoke]

The library and the benchmark are built from source (Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; WAL segments,
checkpoints and span files go under the same directory. The workload runs
in its own process; its output is relayed, and its last line is the JSON
result. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build(out_dir):
    """Configures (once) and builds fairidx_e2e; returns the binary path."""
    cmake_dir = os.path.join(out_dir, "e2e")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "e2e_bench"),
                     "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", cmake_dir, "--target", "fairidx_e2e",
                  "-j", jobs])
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                              env=env)
        if done.returncode != 0:
            return None
    return os.path.join(cmake_dir, "fairidx_e2e")


def git_sha():
    """HEAD of the repository rooted exactly here, else 'unknown'."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def source_digest():
    """sha256 over the library sources, build files and the benchmark."""
    digest = hashlib.sha256()
    for top in ("src", "e2e_bench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("run.py: no fairidx source tree at " + ROOT, file=sys.stderr)
        return 1
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.TimeoutExpired) as error:
        print("run.py: build failed: %s" % error, file=sys.stderr)
        return 1
    if binary is None or not os.path.isfile(binary):
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scale", args.scale,
               "--work-dir", os.path.join(out_dir, "work"),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: workload timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
