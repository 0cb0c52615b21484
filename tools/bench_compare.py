#!/usr/bin/env python3
"""Perf-trajectory gate: diff a fresh bench_timing JSON run against the
checked-in baseline (BENCH_timing.json) and fail on real-time regressions.

Usage:
  tools/bench_compare.py BASELINE.json FRESH.json [--max-regression 0.30]
      [--strict] [--min-real-time-ns 1e5]
      [--require-faster FAST:SLOW[:slack]] ...

A missing, empty, malformed or benchmark-less input exits with a one-line
diagnostic naming the file and (for the baseline) how to refresh it —
never a stack trace, so CI failures stay actionable.

Benchmarks are matched by exact name; benchmarks present on only one side
are reported but never fail the gate (new benchmarks land with their first
baseline refresh). A benchmark fails when

    fresh.real_time > baseline.real_time * (1 + max_regression)

and its baseline real_time is at least --min-real-time-ns (sub-0.1ms
timings are noise-dominated on shared CI runners).

CPU-count awareness: google-benchmark records context.num_cpus. When the
baseline and the fresh run come from machines with different CPU counts,
absolute timings are not comparable (the checked-in baseline is refreshed
on the maintainer's machine, CI runs elsewhere), so regressions are
reported as warnings and the gate exits 0 unless --strict is given. On a
matching machine the gate is always hard.

--require-faster pairs give the gate teeth on ANY machine: both sides of
a pair come from the FRESH run, so the comparison is machine-consistent
regardless of what produced the baseline. "FAST:SLOW" (optionally
":slack", default 0) hard-fails when fresh[FAST] exceeds fresh[SLOW] *
(1 + slack) — i.e. when an optimised path stops beating its retained
naive reference. Pair failures always exit 1, cpu mismatch or not.
"""

import argparse
import json
import sys


BASELINE_HINT = (
    "refresh the baseline with tools/bench_to_json.sh (or the "
    "bench-baseline-refresh workflow) and commit BENCH_timing.json"
)


def fail_file(path, role, problem):
    """Exit with a clear, actionable message instead of a stack trace."""
    hint = f" — {BASELINE_HINT}" if role == "baseline" else ""
    sys.exit(f"bench_compare: {role} {path} {problem}{hint}")


def load(path, role):
    """Parse one google-benchmark JSON file, diagnosing the common ways a
    baseline goes bad (missing, empty, malformed, wrong shape) by name."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as error:
        fail_file(path, role, f"cannot be read: {error}")
    if not text.strip():
        fail_file(path, role, "is empty")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as error:
        fail_file(path, role, f"is not valid JSON: {error}")
    if not isinstance(doc, dict) or not isinstance(doc.get("benchmarks"),
                                                   list):
        fail_file(path, role,
                  "is not a google-benchmark result (no 'benchmarks' list)")
    return doc


# google-benchmark writes real_time in each entry's own time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def timings(doc, path, role):
    """Name -> real_time in ns for plain iteration entries (no aggregates),
    scaled from each entry's time_unit (absent means ns)."""
    out = {}
    for bench in doc["benchmarks"]:
        if not isinstance(bench, dict):
            fail_file(path, role, "has a non-object benchmark entry")
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench.get("name")
        real_time = bench.get("real_time")
        if name is None or not isinstance(real_time, (int, float)):
            fail_file(path, role,
                      "has a benchmark entry without name/real_time")
        unit = bench.get("time_unit", "ns")
        if unit not in NS_PER_UNIT:
            fail_file(path, role,
                      f"has benchmark '{name}' with unknown time_unit "
                      f"'{unit}' (expected one of "
                      f"{', '.join(NS_PER_UNIT)})")
        real_ns = real_time * NS_PER_UNIT[unit]
        # Repetitions: keep the fastest (least noisy on shared runners).
        out[name] = min(real_ns, out.get(name, float("inf")))
    if not out:
        fail_file(path, role, "contains no benchmark timings")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="fail above this relative slowdown (0.30 = 30%%)")
    parser.add_argument("--min-real-time-ns", type=float, default=1e5,
                        help="ignore benchmarks faster than this baseline")
    parser.add_argument("--strict", action="store_true",
                        help="hard-fail even across differing CPU counts")
    parser.add_argument("--require-faster", action="append", default=[],
                        metavar="FAST:SLOW[:slack]",
                        help="fail unless fresh[FAST] <= fresh[SLOW] * "
                             "(1 + slack); machine-independent")
    args = parser.parse_args()

    baseline_doc = load(args.baseline, "baseline")
    fresh_doc = load(args.fresh, "fresh run")
    baseline = timings(baseline_doc, args.baseline, "baseline")
    fresh = timings(fresh_doc, args.fresh, "fresh run")

    baseline_cpus = baseline_doc.get("context", {}).get("num_cpus")
    fresh_cpus = fresh_doc.get("context", {}).get("num_cpus")
    comparable = baseline_cpus == fresh_cpus
    if not comparable:
        print(f"bench_compare: cpu-count mismatch (baseline {baseline_cpus}, "
              f"fresh {fresh_cpus}); regressions are "
              f"{'errors (--strict)' if args.strict else 'warnings only'}")

    # Dispatched-kernel awareness: bench_util.h records which SIMD tier
    # produced the numbers (context.fairidx_simd_tier). A baseline taken
    # under a different tier (e.g. an AVX2 refresh compared on an SSE2
    # runner, or a FAIRIDX_FORCE_SCALAR run) times different code, so
    # absolute ratios mean little — surface that loudly. The
    # --require-faster pairs stay meaningful either way: both sides come
    # from the fresh run, hence the same tier.
    baseline_tier = baseline_doc.get("context", {}).get("fairidx_simd_tier")
    fresh_tier = fresh_doc.get("context", {}).get("fairidx_simd_tier")
    if baseline_tier != fresh_tier:
        print(f"bench_compare: kernel-tier mismatch (baseline "
              f"{baseline_tier or 'unrecorded'}, fresh "
              f"{fresh_tier or 'unrecorded'}); absolute comparisons cover "
              f"different dispatched kernels — require-faster pairs are "
              f"unaffected")

    shared = sorted(set(baseline) & set(fresh))
    only_baseline = sorted(set(baseline) - set(fresh))
    only_fresh = sorted(set(fresh) - set(baseline))
    for name in only_baseline:
        print(f"  note: '{name}' missing from fresh run")
    for name in only_fresh:
        print(f"  note: '{name}' is new (no baseline)")
    if not shared:
        sys.exit("bench_compare: no benchmark names in common")

    regressions = []
    for name in shared:
        base_ns = baseline[name]
        fresh_ns = fresh[name]
        ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
        flag = ""
        if base_ns >= args.min_real_time_ns and \
                ratio > 1.0 + args.max_regression:
            regressions.append((name, ratio))
            flag = "  << REGRESSION"
        print(f"  {name}: {base_ns:.0f} ns -> {fresh_ns:.0f} ns "
              f"(x{ratio:.2f}){flag}")

    pair_failures = 0
    for spec in args.require_faster:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            sys.exit(f"bench_compare: bad --require-faster spec '{spec}'")
        fast_name, slow_name = parts[0], parts[1]
        slack = float(parts[2]) if len(parts) == 3 else 0.0
        if fast_name not in fresh or slow_name not in fresh:
            sys.exit(f"bench_compare: --require-faster names missing from "
                     f"fresh run: '{spec}'")
        fast_ns, slow_ns = fresh[fast_name], fresh[slow_name]
        ok = fast_ns <= slow_ns * (1.0 + slack)
        print(f"  pair: {fast_name} ({fast_ns:.0f} ns) vs {slow_name} "
              f"({slow_ns:.0f} ns, slack {slack:.0%}): "
              f"{'ok' if ok else 'FAILED'}")
        if not ok:
            pair_failures += 1

    print(f"bench_compare: {len(shared)} compared, "
          f"{len(regressions)} above the {args.max_regression:.0%} budget, "
          f"{pair_failures} pair failures")
    if pair_failures or (regressions and (comparable or args.strict)):
        sys.exit(1)
    print("bench_compare: OK")


if __name__ == "__main__":
    main()
