// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Declarative experiment scenarios: a key = value config-file format plus
// the engine that executes one file as a multi-algorithm x multi-height x
// multi-seed pipeline sweep. `fairidx_cli run scenario.cfg`, the examples
// and CI smoke tests all drive experiments through these structs instead
// of ad-hoc flag plumbing.
//
// File format (one `key = value` per line):
//
//   # comment                       full-line or trailing comments
//   include = base.cfg              splice another file (relative to the
//                                   including file; later keys override)
//   name = paper-sweep              free-form label
//   city = la | houston             synthetic city (ignored when csv set)
//   csv = data/extract.csv          EdGap-style CSV instead of a city
//   classifier = lr | tree | nb
//   algorithms = fair_kd_tree, median_kd_tree     (registry names)
//   heights = 4, 6, 8    or    heights = 4..10    (sweep list / range)
//   seeds = 1, 2, 3                 split seeds (one run per seed)
//   task = 0
//   threads = 2                     sweep + partition parallelism
//   test_fraction = 0.25
//   min_region_population = 0       region-merging post-process
//   workload = pipeline | stream    what each sweep point executes
//            | serve | multi_tenant
//   stream_batch = 500              serving: records per ingest batch
//   stream_shards = 4               serving: ShardedDeltaStore shards
//   stream_warmup_pct = 50          serving: warmup prefix percentage
//   stream_seal_records = 0         serving: seal when this many records
//                                   are pending (0: seal every batch)
//   maintain_policy = caller        serving: who runs maintenance.
//                    | auto         caller (default, stream only) seals/
//                                   refines from the ingest loop; auto
//                                   starts the point's shared registry
//                                   scheduler (service/tenant_registry.h)
//                                   and the workers only ingest and look
//                                   up
//   seal_interval = 0.05            auto: background wall-clock seal
//                                   cadence in seconds (0: record
//                                   cadence only; with it set and
//                                   stream_seal_records = 0, the wall
//                                   clock alone governs)
//   drift_bound = 0.02              refine drift bound for both policies
//                                   (< 0: never refine)
//   wal_dir = /tmp/fairidx-wal      serving: write-ahead log + checkpoint
//                                   root (empty: durability off). Each
//                                   sweep point logs under its own
//                                   <algorithm>-h<height>-s<seed>/
//                                   subdirectory so points never share a
//                                   log; a rerun recovers what is there
//   checkpoint_interval = 8         wal: checkpoint every N sealed
//                                   epochs (<= 0: only the initial one)
//   full_snapshot_interval = 1      wal: every Nth checkpoint is a
//                                   full snapshot; the rest are delta
//                                   checkpoints carrying only the cells
//                                   dirtied since the previous one
//                                   (<= 1: every checkpoint is full)
//   fsync = batch                   wal: none | batch | always
//                                   (see service/wal.h for the window
//                                   each mode leaves open)
//   retain_epochs = 0               serving: after each maintenance pass
//                                   keep only the newest N sealed
//                                   snapshots (+ reader-pinned ones);
//                                   0 keeps the full history
//   serve_readers = 2               serve: concurrent worker threads
//                                   issuing mixed lookup/ingest traffic
//                                   against the live service
//   serve_lookups = 50000           serve: lookup points per worker
//   serve_batch = 64                serve: points per LookupMany call
//                                   (one latency sample per call)
//   serve_read_pct = 90             serve: percent of worker operations
//                                   that are lookup batches; the rest
//                                   ingest the stream tail (always fully
//                                   drained, whatever the coin flips)
//   serve_zipf = 0.99               serve: Zipf exponent for hot-cell
//                                   skew in the lookup points (0 draws
//                                   cells uniformly)
//   drift = none | hotspot          serving workloads: deterministic
//         | flash_crowd             drift generator for the ingest tail.
//                                   hotspot sweeps arrivals across the
//                                   grid column by column (a moving hot
//                                   zone); flash_crowd pulls the hot
//                                   column band's records into one
//                                   contiguous burst. Both are pure
//                                   permutations of the tail — the
//                                   record multiset is unchanged
//   drift_hot_pct = 20              hotspot: percent of the stream each
//                                   sweep band occupies; flash_crowd:
//                                   percent of grid columns in the hot
//                                   band
//   drift_window_pct = 50           flash_crowd: how far into the tail
//                                   (percent) the burst lands
//   tenant.<name>.<key> = ...       workload = multi_tenant: per-tenant
//                                   override sections (see
//                                   TenantScenarioKeyNames() and the
//                                   reference doc); every tenant starts
//                                   from the top-level keys and
//                                   overrides what it names
//
// Unknown keys are errors (typos should not silently no-op). With the
// default `workload = pipeline`, every run in the expansion is one
// RunPipeline call. The three serving workloads share ONE driver: every
// sweep point is a TenantRegistry (service/tenant_registry.h), one model
// fit scores each tenant's records, a warmup prefix builds each tenant's
// maintained partition, and worker threads run a closed loop of batched
// LookupMany calls mixed with tail ingest against it:
//
//   stream        one tenant, one worker, no lookups: a pure ingester.
//                 Under maintain_policy = caller the worker seals or
//                 refines once stream_seal_records are pending.
//   serve         one tenant, serve_readers workers; requires
//                 maintain_policy = auto.
//   multi_tenant  one tenant per tenant.<name>.* section, one worker each
//                 (a tenant with lookups = 0 is the noisy neighbor);
//                 requires maintain_policy = auto.
//
// Under maintain_policy = auto the registry's one shared thread seals and
// refines. Without tenant sections the point's single tenant is named
// <algorithm>-h<height>-s<seed> and logs under <wal_dir>/<that name>/;
// multi_tenant tenants log under <wal_dir>/<point>/<tenant>/. With
// wal_dir set every point recovers-or-creates per tenant and resumes at
// the first record it never accepted, so a rerun over the same wal_dir
// reports its tenants "recovered"; a multi_tenant tenant whose recovery
// fails comes back "degraded" while the others keep serving. Every
// serving point reports one ScenarioServingRow per tenant.
//
// Independent sweep points execute on the shared ThreadPool (up to
// `threads` at once); rows always come back in height-major,
// algorithm-minor, seed-innermost order, bit-identical at any thread
// count — EXCEPT under `maintain_policy = auto`, where epoch/resplit
// counts (and hence final_ence) depend on background-thread timing by
// design. Latency, QPS and throughput columns are timing-dependent
// everywhere; record and lookup counts are always deterministic. The
// first 10% of each worker's lookup calls are treated as warmup and
// excluded from the percentiles.

#ifndef FAIRIDX_CORE_SCENARIO_H_
#define FAIRIDX_CORE_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/experiment_config.h"
#include "core/pipeline.h"
#include "data/dataset.h"

namespace fairidx {

/// What one sweep point executes.
enum class ScenarioWorkload {
  /// The batch pipeline: one RunPipeline per sweep point.
  kPipeline,
  /// The serving driver with one tenant and one pure-ingest worker:
  /// warmup build, batched ingest, epoch seals, drift-bounded refines.
  kStream,
  /// The serving driver with one tenant and serve_readers workers mixing
  /// batched point lookups with tail ingest (requires maintain_policy =
  /// auto).
  kServe,
  /// The serving driver with one tenant per tenant.<name>.* section, one
  /// worker each; lookups = 0 makes that tenant a pure ingester (the
  /// noisy neighbor). Requires maintain_policy = auto.
  kMultiTenant,
};

/// Who runs serving-workload maintenance.
enum class ScenarioMaintainPolicy {
  /// The ingesting worker seals/refines (stream only: one writer).
  kCaller,
  /// The registry's shared background scheduler seals/refines; the
  /// workers only ingest and look up.
  kAuto,
};

/// One tenant's override section (workload = multi_tenant): every field
/// left unset inherits the top-level key of the same meaning, so a
/// scenario states the fleet-wide defaults once and each tenant only
/// what makes it different. Parsed from `tenant.<name>.<key> = value`
/// lines; sections are kept in first-appearance order.
struct ScenarioTenantConfig {
  /// Unique tenant name ([A-Za-z0-9_-]+; it names the tenant's WAL
  /// namespace directory).
  std::string name;
  /// Overrides `city` (the tenant then generates its own dataset and
  /// grid shape instead of sharing the scenario's).
  std::optional<std::string> city;
  /// Overrides the sweep point's algorithm for this tenant.
  std::optional<std::string> algorithm;
  /// Overrides the sweep point's tree height.
  std::optional<int> height;
  /// Overrides the sweep point's split seed.
  std::optional<uint64_t> seed;
  /// Overrides stream_batch / stream_shards / stream_warmup_pct /
  /// stream_seal_records for this tenant.
  std::optional<int> batch;
  std::optional<int> shards;
  std::optional<int> warmup_pct;
  std::optional<long long> seal_records;
  /// Overrides seal_interval (per-tenant wall-clock seal cadence).
  std::optional<double> seal_interval;
  /// Overrides drift_bound (< 0: never refine).
  std::optional<double> drift_bound;
  /// Overrides retain_epochs (per-tenant snapshot retention).
  std::optional<int> retain_epochs;
  /// Overrides serve_lookups; 0 is allowed HERE and makes the tenant a
  /// pure ingester (the noisy neighbor — no lookups, full-rate writes).
  std::optional<long long> lookups;
  /// Overrides serve_read_pct for this tenant's worker.
  std::optional<int> read_pct;
  /// Overrides serve_zipf.
  std::optional<double> zipf;
  /// Overrides drift (none | hotspot | flash_crowd).
  std::optional<std::string> drift;
  /// Overrides fsync / checkpoint_interval / full_snapshot_interval
  /// (per-tenant durability, inside the tenant's own namespace).
  std::optional<std::string> fsync;
  std::optional<long long> checkpoint_interval;
  std::optional<long long> full_snapshot_interval;
};

/// One parsed scenario file (after include resolution).
struct ScenarioConfig {
  std::string name;
  std::string city = "la";
  /// When non-empty, load this CSV instead of generating `city`.
  std::string csv;
  ClassifierKind classifier = ClassifierKind::kLogisticRegression;
  std::vector<PartitionAlgorithm> algorithms = {
      PartitionAlgorithm::kFairKdTree};
  std::vector<int> heights = {6};
  std::vector<uint64_t> seeds = {20240601};
  int task = 0;
  int threads = 1;
  double test_fraction = 0.25;
  double min_region_population = 0.0;
  ScenarioWorkload workload = ScenarioWorkload::kPipeline;
  /// Ingest keys shared by every serving workload.
  int stream_batch = 500;
  int stream_shards = 1;
  int stream_warmup_pct = 50;
  /// Seal (and maybe refine) once this many records are pending; 0 seals
  /// after every batch.
  long long stream_seal_records = 0;
  /// Caller-driven vs background maintenance (serving workloads only).
  ScenarioMaintainPolicy maintain_policy = ScenarioMaintainPolicy::kCaller;
  /// Background wall-clock seal cadence in seconds (maintain_policy =
  /// auto only; 0 leaves only the record-count cadence).
  double seal_interval = 0.0;
  /// Drift bound for incremental maintenance, under either policy; < 0
  /// streams without refining (the warmup partition stays fixed).
  double drift_bound = 0.02;
  /// Durability root directory (serving workloads only; empty disables
  /// the WAL and checkpoints). Each sweep point uses its own
  /// subdirectory.
  std::string wal_dir;
  /// Checkpoint every this many sealed epochs (<= 0: only at create).
  long long checkpoint_interval = 8;
  /// Every Nth checkpoint is a full snapshot, the rest are delta
  /// checkpoints (<= 1: all full; see DurabilityOptions).
  long long full_snapshot_interval = 1;
  /// WAL fsync mode: "none" | "batch" | "always".
  std::string fsync = "batch";
  /// Sealed-snapshot history bound applied after each maintenance pass
  /// (0 disables retention).
  int retain_epochs = 0;
  /// Lookup-traffic keys (serve and multi_tenant; stream workers never
  /// look up). Concurrent worker threads per tenant under serve.
  int serve_readers = 2;
  /// Lookup points per worker thread.
  long long serve_lookups = 50000;
  /// Points per LookupMany call (one latency sample per call).
  int serve_batch = 64;
  /// Percent of worker operations that are lookup batches (the rest
  /// ingest the stream tail; leftovers drain after the lookups finish).
  int serve_read_pct = 90;
  /// Zipf exponent for hot-cell skew in lookup points (0 = uniform).
  double serve_zipf = 0.99;
  /// Drift generator for the serving-workload ingest tail: "none" keeps
  /// arrival order, "hotspot" sweeps arrivals across the grid column by
  /// column, "flash_crowd" pulls the hot column band into one
  /// contiguous burst. Pure permutations of the tail (the record
  /// multiset is unchanged); see ScenarioDriftTailOrder.
  std::string drift = "none";
  /// hotspot: percent of the stream each sweep band occupies;
  /// flash_crowd: percent of grid columns in the hot band.
  int drift_hot_pct = 20;
  /// flash_crowd: how far into the tail (percent) the burst lands.
  int drift_window_pct = 50;
  /// Tenant sections (workload = multi_tenant), in first-appearance
  /// order.
  std::vector<ScenarioTenantConfig> tenants;
};

/// Every config key the scenario parser accepts, including aliases, in
/// the parser's own order. docs/scenario_reference.md documents exactly
/// this list; tests/serve_scenario_test.cc enforces that both the doc
/// table and the parser's accepted set match it, so neither can rot.
std::vector<std::string> ScenarioKeyNames();

/// The per-tenant sub-keys the parser accepts inside a
/// `tenant.<name>.<key>` section, spelled the way the reference doc
/// lists them (`tenant.<name>.city`, ...), in the parser's own order.
/// The doc table is test-enforced against ScenarioKeyNames() +
/// TenantScenarioKeyNames() concatenated.
std::vector<std::string> TenantScenarioKeyNames();

/// The deterministic tail permutation a drift generator applies:
/// absolute indices into `cell_ids` covering exactly [warmup, size), in
/// emission order. `drift` must be "hotspot" or "flash_crowd"
/// (validated at parse time); both are stable, so records within one
/// band keep their arrival order and the returned order is a pure
/// function of (drift, hot_pct, window_pct, grid shape, cell ids).
std::vector<size_t> ScenarioDriftTailOrder(const std::string& drift,
                                           int hot_pct, int window_pct,
                                           const Grid& grid,
                                           const std::vector<int>& cell_ids,
                                           size_t warmup);

/// One point of the expanded sweep.
struct ScenarioRun {
  PartitionAlgorithm algorithm = PartitionAlgorithm::kFairKdTree;
  int height = 6;
  uint64_t seed = 20240601;
};

/// Parses scenario text. `include_dir` resolves relative include paths
/// (pass the file's directory; "" means the working directory).
Result<ScenarioConfig> ParseScenarioText(const std::string& text,
                                         const std::string& include_dir);

/// Loads and parses a scenario file (includes resolve relative to it).
Result<ScenarioConfig> LoadScenarioFile(const std::string& path);

/// The cross product algorithms x heights x seeds, height-major.
std::vector<ScenarioRun> ExpandScenario(const ScenarioConfig& config);

/// Loads the dataset a scenario names (CSV when set, city otherwise).
Result<Dataset> LoadScenarioDataset(const ScenarioConfig& config);

/// One sweep point's results.
struct ScenarioRow {
  ScenarioRun run;
  int regions = 0;
  double train_ence = 0.0;
  double test_ence = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  double test_miscalibration = 0.0;
  double partition_seconds = 0.0;
  int model_fits = 0;
};

/// One tenant's results within one serving sweep point (workload =
/// stream, serve or multi_tenant; a stream or serve point has exactly
/// one tenant). Every field is filled the same way for every workload,
/// from the tenant's own service counters. Latency and throughput are
/// timing-dependent by design; `records` and `lookups` are
/// deterministic. A degraded tenant (failed recovery) reports its name
/// and state with zeroed counters.
struct ScenarioServingRow {
  /// The tenant's effective sweep point (tenant overrides applied).
  ScenarioRun run;
  /// The tenant section's name, or <algorithm>-h<height>-s<seed> for
  /// the single tenant of a stream or serve point.
  std::string tenant;
  /// "serving" (created fresh), "recovered" (rebuilt from its WAL/
  /// checkpoint namespace), or "degraded" (recovery failed; the other
  /// tenants keep serving).
  std::string state;
  /// Final published partition size.
  int regions = 0;
  /// Records in the tenant's store (warmup + ingested).
  long long records = 0;
  /// Sealed epochs / published subtree re-splits.
  long long epochs = 0;
  long long resplits = 0;
  /// Partition publications that went out via an O(changed area)
  /// cell-map patch vs. a full O(grid) rebuild.
  long long published_patched = 0;
  long long published_fallback = 0;
  /// Lookup points answered by the tenant's workers (warmup calls
  /// included; 0 for a pure ingester).
  long long lookups = 0;
  /// lookups / seconds.
  double read_qps = 0.0;
  /// LookupMany call latency percentiles in microseconds, pooled over
  /// the tenant's workers (first 10% of each worker's calls excluded).
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  /// Tail records ingested / seconds.
  double ingest_rps = 0.0;
  /// Worst single publication swap (the reader-visible publish stall)
  /// and worst single checkpoint write (0 without a WAL), in micros.
  long long publish_stall_us = 0;
  long long checkpoint_stall_us = 0;
  /// Region ENCE of the final partition on the final sealed epoch.
  double final_ence = 0.0;
  /// Wall-clock seconds of the tenant's traffic phase (its slowest
  /// worker; excludes the model fit, warmup build and pre-generation).
  double seconds = 0.0;
};

/// A finished scenario execution. `rows` is filled for the pipeline
/// workload, `serving_rows` for the serving workloads (grouped by sweep
/// point, tenants in section order within each point); both in sweep
/// order.
struct ScenarioReport {
  ScenarioWorkload workload = ScenarioWorkload::kPipeline;
  std::vector<ScenarioRow> rows;
  std::vector<ScenarioServingRow> serving_rows;
};

/// Executes every expanded run against `dataset`, dispatching on
/// config.workload. Runs that fail on a per-algorithm precondition the
/// config could not know about (e.g. multi-objective on a 1-task CSV, a
/// non-refinable structure under workload = stream) fail the whole
/// scenario — list only applicable algorithms. Independent sweep points
/// run on the shared ThreadPool, at most config.threads at once; the
/// report's deterministic columns are identical at any thread count.
Result<ScenarioReport> RunScenario(const ScenarioConfig& config,
                                   const Dataset& dataset);

/// Convenience: LoadScenarioDataset + RunScenario.
Result<ScenarioReport> RunScenario(const ScenarioConfig& config);

}  // namespace fairidx

#endif  // FAIRIDX_CORE_SCENARIO_H_
