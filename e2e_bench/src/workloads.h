// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The benchmark's four workloads (see e2e_bench/WORKLOADS.md for why each
// exists and which layers it loads). Each one generates its inputs from
// the seed before any clock starts, then repeats whole passes — a fresh
// service or batch job per pass — until the run's seconds are spent, and
// reports medians over the passes and percentiles over the pooled samples.

#ifndef FAIRIDX_E2E_BENCH_WORKLOADS_H_
#define FAIRIDX_E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "harness.h"

namespace fairidx {
namespace e2e {

struct RunConfig {
  uint64_t seed = 1;
  /// Wall-clock budget for the measured passes.
  double seconds = 10.0;
  /// Traced run: passes alternate untraced / traced, spans are recorded in
  /// the traced ones, and per-layer metrics are reported.
  bool trace = false;
  /// Tiny inputs for the self-test (every code path, milliseconds).
  bool smoke = false;
  /// Build, store and fold threads.
  int nproc = 1;
  /// Scratch directory for WAL segments and checkpoints.
  std::string work_dir;
};

Status RunIngestDurable(const RunConfig& config, Report* report);
Status RunServeZipf(const RunConfig& config, Report* report);
Status RunRefineDrift(const RunConfig& config, Report* report);
Status RunPaperBatch(const RunConfig& config, Report* report);

}  // namespace e2e
}  // namespace fairidx

#endif  // FAIRIDX_E2E_BENCH_WORKLOADS_H_
