// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared helpers for the benchmark harness binaries. Each bench binary
// regenerates one of the paper's figures as printed series;
// timing-oriented benchmarks use google-benchmark.

#ifndef FAIRIDX_BENCH_BENCH_UTIL_H_
#define FAIRIDX_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#ifdef FAIRIDX_WITH_GBENCH
#include <benchmark/benchmark.h>
#endif

#include "common/cpu_features.h"
#include "common/result.h"
#include "core/experiment_config.h"
#include "core/pipeline.h"
#include "data/edgap_synthetic.h"

namespace fairidx {
namespace bench {

/// Aborts with a message when a Result is an error (bench binaries have no
/// meaningful recovery path).
template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

/// Generates one of the paper's cities, dying on error.
inline Dataset LoadCity(const CityConfig& config) {
  return OrDie(GenerateEdgapCity(config), "GenerateEdgapCity");
}

/// Runs the pipeline, dying on error.
inline PipelineRunResult RunOrDie(const Dataset& dataset,
                                  const Classifier& prototype,
                                  const PipelineOptions& options) {
  return OrDie(RunPipeline(dataset, prototype, options), "RunPipeline");
}

/// The kernel's transparent-huge-page mode: the bracketed word of
/// /sys/kernel/mm/transparent_hugepage/enabled, or "unavailable".
inline std::string TransparentHugePageMode() {
  std::FILE* file =
      std::fopen("/sys/kernel/mm/transparent_hugepage/enabled", "r");
  if (file == nullptr) return "unavailable";
  char line[256] = {};
  const bool read = std::fgets(line, sizeof line, file) != nullptr;
  std::fclose(file);
  const char* open = read ? std::strchr(line, '[') : nullptr;
  const char* close = open != nullptr ? std::strchr(open, ']') : nullptr;
  if (close == nullptr) return "unavailable";
  return std::string(open + 1, close);
}

/// Prints a section banner so bench output reads like the paper's figures.
inline void PrintBanner(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

#ifdef FAIRIDX_WITH_GBENCH
/// JSON-out convention for the google-benchmark timing binaries: when the
/// FAIRIDX_BENCH_OUT environment variable is set and the caller passed no
/// explicit --benchmark_out flag, results are also written as JSON to that
/// path. tools/bench_to_json.sh drives this to refresh BENCH_timing.json at
/// the repo root — the perf-trajectory baseline future PRs compare against.
/// Timing binaries call this instead of BENCHMARK_MAIN().
inline int RunGoogleBenchmark(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag;
  const char* out_path = std::getenv("FAIRIDX_BENCH_OUT");
  bool has_out_flag = false;
  bool has_format_flag = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      has_out_flag = true;
    }
    if (std::strncmp(argv[i], "--benchmark_out_format=", 23) == 0) {
      has_format_flag = true;
    }
  }
  // Explicit flags always win over the convention (benchmark parses
  // last-wins, so ours must not be appended after the user's).
  if (out_path != nullptr && !has_out_flag) {
    out_flag = std::string("--benchmark_out=") + out_path;
    args.push_back(out_flag.data());
    if (!has_format_flag) {
      format_flag = "--benchmark_out_format=json";
      args.push_back(format_flag.data());
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  // Record which kernel tier the numbers were measured under, so baseline
  // comparisons can flag runs taken with different dispatch (e.g. a
  // FAIRIDX_FORCE_SCALAR baseline against an AVX2 fresh run).
  benchmark::AddCustomContext("fairidx_simd_tier",
                              SimdTierName(DetectedSimdTier()));
  benchmark::AddCustomContext(
      "fairidx_crc32c", CrcHardwareAvailable() ? "hardware" : "software");
  // Cold-storage timings (BM_FromCellSumsColdStorage) depend on whether
  // the huge-page advice can take effect.
  benchmark::AddCustomContext("fairidx_thp", TransparentHugePageMode());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
#endif  // FAIRIDX_WITH_GBENCH

}  // namespace bench
}  // namespace fairidx

#endif  // FAIRIDX_BENCH_BENCH_UTIL_H_
