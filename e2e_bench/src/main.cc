// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// fairidx_e2e: runs one workload of the end-to-end benchmark and prints
// its run context, input checksums, every metric by name and unit, and —
// as the last line — one JSON object {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones from the traced passes.
//
//   fairidx_e2e --workload ingest_durable --seed 1 --seconds 10 --trace 0
//       [--scale full|smoke] [--work-dir DIR] [--git-sha SHA]
//       [--source-digest HEX]

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common/cpu_features.h"
#include "harness.h"
#include "workloads.h"

namespace fairidx {
namespace e2e {
namespace {

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void PrintContext(const std::map<std::string, std::string>& args,
                  int nproc) {
#ifdef __OPTIMIZE__
  const int optimized = 1;
#else
  const int optimized = 0;
#endif
#ifdef NDEBUG
  const int ndebug = 1;
#else
  const int ndebug = 0;
#endif
#ifdef __clang__
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::printf(
      "context nproc=%d compiler=\"%s %s\" optimize=%d ndebug=%d simd=%s "
      "crc32c_hw=%d git_sha=%s source_digest=%s\n",
      nproc, compiler, __VERSION__, optimized, ndebug,
      SimdTierName(DetectedSimdTier()), CrcHardwareAvailable() ? 1 : 0,
      args.at("git-sha").c_str(), args.at("source-digest").c_str());
}

int Run(int argc, char** argv) {
  std::map<std::string, std::string> args = {
      {"workload", ""},        {"seed", "1"},
      {"seconds", "10"},       {"trace", "0"},
      {"scale", "full"},       {"work-dir", ".bench_build/work"},
      {"git-sha", "unknown"},  {"source-digest", "unknown"},
  };
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || args.count(key.substr(2)) == 0) {
      std::fprintf(stderr, "fairidx_e2e: unknown flag %s\n", argv[i]);
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  const std::map<std::string, Status (*)(const RunConfig&, Report*)>
      workloads = {
          {"ingest_durable", RunIngestDurable},
          {"serve_zipf", RunServeZipf},
          {"refine_drift", RunRefineDrift},
          {"paper_batch", RunPaperBatch},
      };
  const auto workload = workloads.find(args["workload"]);
  if (workload == workloads.end()) {
    std::fprintf(stderr, "fairidx_e2e: unknown --workload '%s'\n",
                 args["workload"].c_str());
    return 2;
  }

  RunConfig config;
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(args["seconds"].c_str());
  config.trace = args["trace"] == "1";
  config.smoke = args["scale"] == "smoke";
  config.nproc = Nproc();
  config.work_dir = args["work-dir"];
  std::error_code ignored;
  std::filesystem::create_directories(config.work_dir, ignored);

  PrintContext(args, config.nproc);
  Report report;
  const Status status = workload->second(config, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "fairidx_e2e: %s failed: %s\n",
                 workload->first.c_str(), status.ToString().c_str());
    return 1;
  }
  if (config.trace) {
    const std::string path =
        config.work_dir + "/spans-" + workload->first + ".csv";
    if (!WriteSpans(path)) {
      std::fprintf(stderr, "fairidx_e2e: cannot write %s\n", path.c_str());
      return 1;
    }
    report.Note("spans written to " + path);
  }
  for (const std::string& note : report.notes()) {
    std::printf("note %s\n", note.c_str());
  }

  // Human-readable lines for both metric sets, then the result line with
  // the set this run reports. An end-to-end metric a workload did not
  // produce is a benchmark bug; a per-layer metric a workload does not
  // exercise reads 0.
  std::string json;
  for (int set = 0; set < 2; ++set) {
    const bool layer = set == 1;
    for (const MetricDef& def :
         layer ? PerLayerMetrics() : EndToEndMetrics()) {
      const double value = report.Get(def.name);
      if (!std::isfinite(value) || (!layer && !report.Has(def.name))) {
        std::fprintf(stderr, "fairidx_e2e: metric %s missing or not finite\n",
                     def.name);
        return 1;
      }
      if (layer && !config.trace) continue;
      std::printf("metric %s = %.17g %s\n", def.name, value, def.unit);
      if (layer != config.trace) continue;
      char entry[256];
      std::snprintf(entry, sizeof entry,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    json.empty() ? "" : ", ", def.name, value, def.unit);
      json += entry;
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      report.correct() ? "true" : "false", report.attempted(),
      report.failed(), json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace fairidx

int main(int argc, char** argv) { return fairidx::e2e::Run(argc, argv); }
