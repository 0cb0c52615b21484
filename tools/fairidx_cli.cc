// fairidx command-line tool: run fair spatial indexing end to end without
// writing C++.
//
//   fairidx_cli generate  --city la|houston --out data.csv
//   fairidx_cli run       scenario.cfg
//   fairidx_cli run       --city la [--csv data.csv] --algorithm fair_kd_tree
//                         --height 6 --classifier lr [--task 0] [--threads N]
//   fairidx_cli sweep     --city la --classifier lr [--algorithm ...]
//   fairidx_cli disparity --city la [--csv data.csv] [--top 10]
//   fairidx_cli export    --city la --algorithm fair_kd_tree --height 6
//                         --out partition.csv [--wkt partition.wkt]
//   fairidx_cli stream    --city la [--height 6] [--batch 200]
//                         [--warmup-pct 50] [--shards N] [--seal-records N]
//                         [--refine-bound B] [--algorithm fair_kd_tree]
//                         [--auto-maintain] [--seal-interval S]
//                         [--wal DIR] [--tenant NAME]
//                         [--checkpoint-interval N]
//                         [--full-snapshot-interval N]
//                         [--fsync none|batch|always] [--retain-epochs K]
//                         [--regions-out FILE]
//   fairidx_cli check     scenario.cfg   (parse + validate only)
//   fairidx_cli --help                   (spec-generated flag reference)
//
// The accepted flag set lives in tools/cli_spec.h — one table generates
// `--help`, validates parsed flags (unknown flags are errors), and is
// pinned against the README flag table by tests/cli_spec_test.cc.
//
// `run scenario.cfg` executes a declarative scenario file — a
// multi-algorithm x multi-height x multi-seed sweep from one config (see
// core/scenario.h for the format and examples/scenarios/ for samples).
// Scenario files with `workload = stream`, `serve` or `multi_tenant`
// drive the serving layer instead of the batch pipeline and print one
// serving table (one row per sweep point and tenant).
//
// `stream` is the online re-districting demo on the concurrent serving
// layer (service/fair_index_service.h): it builds a partition from a
// warmup prefix of the records, then streams the rest through a
// FairIndexService batch by batch — per-shard ingest appends, epoch
// seals folding the pending batches into an immutable snapshot on the
// shared pool, and the partition's region ENCE off each sealed epoch.
// With --refine-bound B the partition is maintained incrementally:
// whenever some region's calibration gap drifts past B on a sealed
// epoch, only the drifted subtrees are re-split
// (index/kd_tree_maintainer.h) instead of rebuilding the whole tree.
// --seal-records N defers seals until N records are pending (0 = seal
// every batch). A seal costs one O(UV) prefix integration — the default
// per-batch cadence keeps every table row fresh on the demo-sized grids
// here, but on production-scale grids raise --seal-records so the fold
// amortizes over many batches (rows between seals then repeat the last
// sealed epoch's ENCE).
//
// With --auto-maintain the ingest loop never seals or refines itself:
// the service's background MaintenancePolicy thread does (seal cadence
// from --seal-records and/or --seal-interval S seconds, refine per
// --refine-bound when given) — the hands-off serving mode. Epoch and
// re-split columns then reflect background timing rather than a
// deterministic per-batch schedule.
//
// With --wal DIR the stream is durable: every batch is write-ahead
// logged and sealed state checkpointed into DIR (see service/wal.h and
// service/checkpoint.h). When DIR already holds a checkpoint the command
// RECOVERS instead of starting over — it replays the WAL tail and
// resumes streaming at the first record the killed run never accepted,
// which is what the crash-recovery CI lane exercises
// (--crash-after-batches N raises SIGKILL mid-stream deterministically;
// rerun, then diff the final region aggregates against an uninterrupted
// reference). --fsync picks the stable-storage window
// (none|batch|always), --checkpoint-interval N checkpoints every N
// sealed epochs, --full-snapshot-interval N makes only every Nth
// checkpoint a full snapshot (the rest are O(changed) delta
// checkpoints holding just the cells sealed since the previous one),
// --retain-epochs K bounds the sealed-snapshot history, and
// --regions-out FILE writes the final per-region aggregates with full
// double precision for exact diffing.
//
// `--csv` loads an EdGap-style extract (see data/csv_dataset.h for the
// schema); otherwise the named synthetic city is generated.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/experiment_config.h"
#include "core/pipeline.h"
#include "core/scenario.h"
#include "data/csv_dataset.h"
#include "data/split.h"
#include "fairness/disparity_report.h"
#include "fairness/region_metrics.h"
#include "index/partition_io.h"
#include "service/checkpoint.h"
#include "service/fair_index_service.h"
#include "service/tenant_registry.h"
#include "cli_spec.h"

namespace fairidx {
namespace cli {
namespace {

// ----- Flag parsing -------------------------------------------------

// Numeric flags are typed by their cli_spec.h value hint (N, K and P
// take an integer, B and S a real number) and parsed with the scenario
// parser's ParseInt/ParseDouble, so `--height banana` or `--batch 2x`
// fails instead of silently becoming 0 or 2.
Status CheckFlagValue(const std::string& name, const std::string& value) {
  for (const CliFlagSpec& spec : kCliFlags) {
    if (name != spec.name) continue;
    const std::string hint = spec.value;
    Status status = Status::Ok();
    if (hint == "N" || hint == "K" || hint == "P") {
      status = ParseInt(value).status();
    } else if (hint == "B" || hint == "S") {
      status = ParseDouble(value).status();
    }
    if (!status.ok()) {
      return InvalidArgumentError("--" + name + ": " + status.message());
    }
  }
  return Status::Ok();
}

class Flags {
 public:
  Flags(int argc, char** argv, int first, const std::string& command) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        ok_ = false;
        return;
      }
      arg = arg.substr(2);
      // Every accepted flag lives in the cli_spec.h table (which also
      // generates --help), so an unknown flag is an error instead of a
      // silently-ignored no-op. `--threshold` passes through so
      // CmdStream can explain what replaced it.
      if (!CliCommandHasFlag(command, arg) &&
          !(command == "stream" && arg == "threshold")) {
        std::fprintf(stderr, "unknown flag --%s for '%s' (try --help)\n",
                     arg.c_str(), command.c_str());
        ok_ = false;
        return;
      }
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
      value_error_ = CheckFlagValue(arg, values_[arg]);
      if (!value_error_.ok()) return;
    }
  }

  /// False on a usage error (unknown flag, stray argument).
  bool ok() const { return ok_; }
  /// The first malformed numeric value, if any.
  const Status& value_error() const { return value_error_; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  // Values were checked by CheckFlagValue at parse time.
  int GetInt(const std::string& name, int fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : ParseInt(it->second).value();
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : ParseDouble(it->second).value();
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
  Status value_error_ = Status::Ok();
};

// ----- Shared helpers -------------------------------------------------

Result<Dataset> LoadFlaggedDataset(const Flags& flags) {
  // Same resolution rules as scenario files (one city-name map to
  // maintain).
  ScenarioConfig source;
  source.csv = flags.Get("csv", "");
  source.city = flags.Get("city", "la");
  return LoadScenarioDataset(source);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// ----- Subcommands ----------------------------------------------------

int CmdGenerate(const Flags& flags) {
  auto dataset = LoadFlaggedDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  const std::string out = flags.Get("out", "/dev/stdout");
  std::ofstream file(out);
  if (!file) return Fail(InternalError("cannot open " + out));
  file << DatasetToCsv(*dataset);
  std::fprintf(stderr, "wrote %zu records to %s\n", dataset->num_records(),
               out.c_str());
  return 0;
}

// `run <scenario.cfg>`: the declarative sweep path.
int CmdRunScenario(const std::string& path) {
  auto config = LoadScenarioFile(path);
  if (!config.ok()) return Fail(config.status());
  auto dataset = LoadScenarioDataset(*config);
  if (!dataset.ok()) return Fail(dataset.status());
  std::fprintf(stderr,
               "scenario %s: %zu runs (%zu algorithms x %zu heights x %zu "
               "seeds) on %zu records, classifier %s\n",
               config->name.c_str(),
               config->algorithms.size() * config->heights.size() *
                   config->seeds.size(),
               config->algorithms.size(), config->heights.size(),
               config->seeds.size(), dataset->num_records(),
               ClassifierKindName(config->classifier));
  std::fprintf(stderr, "kernels: %s (crc32c %s)\n",
               SimdTierName(DetectedSimdTier()),
               CrcHardwareAvailable() ? "hardware" : "software");
  auto report = RunScenario(*config, *dataset);
  if (!report.ok()) return Fail(report.status());

  if (report->workload != ScenarioWorkload::kPipeline) {
    // One row per (sweep point, tenant) for every serving workload. A
    // degraded tenant keeps its row — zeros everywhere, state says why —
    // so fleet health is visible in the same table as the latency
    // readout.
    TablePrinter table({"height", "algorithm", "seed", "tenant", "state",
                        "regions", "records", "epochs", "resplits",
                        "patched", "fallback", "lookups", "qps", "p50_us",
                        "p95_us", "p99_us", "ingest_rps", "pub_stall_us",
                        "ckpt_stall_us", "final_ence", "seconds"});
    for (const ScenarioServingRow& row : report->serving_rows) {
      table.AddRow({std::to_string(row.run.height),
                    PartitionAlgorithmName(row.run.algorithm),
                    std::to_string(row.run.seed), row.tenant, row.state,
                    std::to_string(row.regions),
                    std::to_string(row.records),
                    std::to_string(row.epochs),
                    std::to_string(row.resplits),
                    std::to_string(row.published_patched),
                    std::to_string(row.published_fallback),
                    std::to_string(row.lookups),
                    TablePrinter::FormatDouble(row.read_qps, 0),
                    TablePrinter::FormatDouble(row.p50_us, 1),
                    TablePrinter::FormatDouble(row.p95_us, 1),
                    TablePrinter::FormatDouble(row.p99_us, 1),
                    TablePrinter::FormatDouble(row.ingest_rps, 0),
                    std::to_string(row.publish_stall_us),
                    std::to_string(row.checkpoint_stall_us),
                    TablePrinter::FormatDouble(row.final_ence, 5),
                    TablePrinter::FormatDouble(row.seconds, 3)});
    }
    table.Print(std::cout);
    return 0;
  }

  TablePrinter table({"height", "algorithm", "seed", "regions",
                      "train_ence", "test_ence", "test_acc", "build_s",
                      "fits"});
  for (const ScenarioRow& row : report->rows) {
    table.AddRow({std::to_string(row.run.height),
                  PartitionAlgorithmName(row.run.algorithm),
                  std::to_string(row.run.seed),
                  std::to_string(row.regions),
                  TablePrinter::FormatDouble(row.train_ence, 5),
                  TablePrinter::FormatDouble(row.test_ence, 5),
                  TablePrinter::FormatDouble(row.test_accuracy, 4),
                  TablePrinter::FormatDouble(row.partition_seconds, 3),
                  std::to_string(row.model_fits)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdRun(const Flags& flags) {
  auto dataset = LoadFlaggedDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  auto algorithm =
      ParsePartitionAlgorithm(flags.Get("algorithm", "fair_kd_tree"));
  if (!algorithm.ok()) return Fail(algorithm.status());
  auto classifier_kind = ParseClassifierKind(flags.Get("classifier", "lr"));
  if (!classifier_kind.ok()) return Fail(classifier_kind.status());

  PipelineOptions options;
  options.algorithm = *algorithm;
  options.height = flags.GetInt("height", 6);
  options.task = flags.GetInt("task", 0);
  options.num_threads = flags.GetInt("threads", 1);
  const auto prototype = MakeClassifier(*classifier_kind);
  auto run = RunPipeline(*dataset, *prototype, options);
  if (!run.ok()) return Fail(run.status());

  const EvaluationResult& eval = run->final_model.eval;
  std::printf("algorithm:        %s\n", PartitionAlgorithmName(*algorithm));
  std::printf("kernels:          %s (crc32c %s)\n",
              SimdTierName(DetectedSimdTier()),
              CrcHardwareAvailable() ? "hardware" : "software");
  std::printf("classifier:       %s\n", ClassifierKindName(*classifier_kind));
  std::printf("height:           %d\n", options.height);
  std::printf("task:             %s\n",
              dataset->task_name(options.task).c_str());
  std::printf("neighborhoods:    %d\n", eval.num_neighborhoods);
  std::printf("train ENCE:       %.5f\n", eval.train_ence);
  std::printf("test ENCE:        %.5f\n", eval.test_ence);
  std::printf("train accuracy:   %.4f\n", eval.train_accuracy);
  std::printf("test accuracy:    %.4f\n", eval.test_accuracy);
  std::printf("test |e-o|:       %.5f\n", eval.test_miscalibration);
  std::printf("partition build:  %.3fs (%d model fits)\n",
              run->partition_seconds, run->partition_stage_fits);
  return 0;
}

int CmdSweep(const Flags& flags) {
  auto dataset = LoadFlaggedDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  auto classifier_kind = ParseClassifierKind(flags.Get("classifier", "lr"));
  if (!classifier_kind.ok()) return Fail(classifier_kind.status());
  const auto prototype = MakeClassifier(*classifier_kind);

  std::vector<PartitionAlgorithm> algorithms;
  if (flags.Has("algorithm")) {
    auto algorithm = ParsePartitionAlgorithm(flags.Get("algorithm"));
    if (!algorithm.ok()) return Fail(algorithm.status());
    algorithms.push_back(*algorithm);
  } else {
    algorithms = {PartitionAlgorithm::kMedianKdTree,
                  PartitionAlgorithm::kFairKdTree,
                  PartitionAlgorithm::kIterativeFairKdTree,
                  PartitionAlgorithm::kUniformGridReweight};
  }

  TablePrinter table({"height", "algorithm", "regions", "train_ence",
                      "test_ence", "test_accuracy"});
  for (int height : PaperHeightSweep()) {
    for (PartitionAlgorithm algorithm : algorithms) {
      PipelineOptions options;
      options.algorithm = algorithm;
      options.height = height;
      options.task = flags.GetInt("task", 0);
      options.num_threads = flags.GetInt("threads", 1);
      auto run = RunPipeline(*dataset, *prototype, options);
      if (!run.ok()) return Fail(run.status());
      const EvaluationResult& eval = run->final_model.eval;
      table.AddRow({std::to_string(height),
                    PartitionAlgorithmName(algorithm),
                    std::to_string(eval.num_neighborhoods),
                    TablePrinter::FormatDouble(eval.train_ence, 5),
                    TablePrinter::FormatDouble(eval.test_ence, 5),
                    TablePrinter::FormatDouble(eval.test_accuracy, 4)});
    }
  }
  table.Print(std::cout);
  return 0;
}

int CmdDisparity(const Flags& flags) {
  auto dataset = LoadFlaggedDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  if (!dataset->has_zip_codes()) {
    return Fail(FailedPreconditionError("dataset has no zip codes"));
  }
  Dataset working = *dataset;
  if (auto status = working.SetNeighborhoods(working.zip_codes());
      !status.ok()) {
    return Fail(status);
  }
  Rng rng(99);
  auto split = MakeStratifiedSplit(working.labels(0), 0.25, rng);
  if (!split.ok()) return Fail(split.status());
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  auto trained = TrainAndEvaluate(working, *split, *prototype,
                                  EvalOptions{});
  if (!trained.ok()) return Fail(trained.status());
  auto report = BuildDisparityReport(trained->scores, working.labels(0),
                                     working.zip_codes(),
                                     flags.GetInt("top", 10), 15);
  if (!report.ok()) return Fail(report.status());
  std::printf("overall: e=%.4f o=%.4f |e-o|=%.5f\n",
              report->overall.mean_score, report->overall.mean_label,
              report->overall.AbsMiscalibration());
  DisparityReportTable(*report).Print(std::cout);
  return 0;
}

int CmdExport(const Flags& flags) {
  auto dataset = LoadFlaggedDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  auto algorithm =
      ParsePartitionAlgorithm(flags.Get("algorithm", "fair_kd_tree"));
  if (!algorithm.ok()) return Fail(algorithm.status());
  PipelineOptions options;
  options.algorithm = *algorithm;
  options.height = flags.GetInt("height", 6);
  options.num_threads = flags.GetInt("threads", 1);
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  auto run = RunPipeline(*dataset, *prototype, options);
  if (!run.ok()) return Fail(run.status());
  if (!run->has_cell_partition) {
    return Fail(FailedPreconditionError(
        "algorithm does not produce a cell partition"));
  }

  const std::string out = flags.Get("out", "partition.csv");
  if (auto status = SavePartitionCsv(out, dataset->grid(),
                                     run->partition.partition);
      !status.ok()) {
    return Fail(status);
  }
  std::fprintf(stderr, "wrote %d regions to %s\n",
               run->partition.partition.num_regions(), out.c_str());
  if (flags.Has("wkt")) {
    std::ofstream wkt_file(flags.Get("wkt"));
    if (!wkt_file) {
      return Fail(InternalError("cannot open " + flags.Get("wkt")));
    }
    wkt_file << PartitionRectsToWkt(dataset->grid(),
                                    run->partition.regions);
    std::fprintf(stderr, "wrote WKT polygons to %s\n",
                 flags.Get("wkt").c_str());
  }
  return 0;
}

int CmdStream(const Flags& flags) {
  auto dataset = LoadFlaggedDataset(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  const int height = flags.GetInt("height", 6);
  const int batch = flags.GetInt("batch", 200);
  const int warmup_pct = flags.GetInt("warmup-pct", 50);
  const int shards = flags.GetInt("shards", 1);
  const long long seal_records = flags.GetInt("seal-records", 0);
  const bool auto_maintain = flags.Has("auto-maintain");
  const double seal_interval = flags.GetDouble("seal-interval", 0.0);
  std::string wal_dir = flags.Get("wal", "");
  const std::string tenant = flags.Get("tenant", "");
  if (!tenant.empty()) {
    // Mirror the TenantRegistry namespace layout (<wal>/<tenant>) so a
    // stream driven per tenant from the CLI and a registry hosting the
    // same tenants produce interchangeable on-disk state.
    if (wal_dir.empty()) {
      return Fail(InvalidArgumentError(
          "--tenant needs --wal (it names a durability namespace)"));
    }
    if (Status status = ValidateTenantName(tenant); !status.ok()) {
      return Fail(InvalidArgumentError("--tenant: " + status.message()));
    }
    wal_dir += "/" + tenant;
  }
  const int retain_epochs = flags.GetInt("retain-epochs", 0);
  const int full_snapshot_interval =
      flags.GetInt("full-snapshot-interval", 1);
  const int crash_after = flags.GetInt("crash-after-batches", 0);
  if (batch < 1) return Fail(InvalidArgumentError("--batch must be >= 1"));
  if (crash_after < 0) {
    return Fail(InvalidArgumentError("--crash-after-batches must be >= 0"));
  }
  if (crash_after > 0 && wal_dir.empty()) {
    return Fail(InvalidArgumentError(
        "--crash-after-batches needs --wal (a crash without a log is just "
        "data loss)"));
  }
  if (retain_epochs < 0) {
    return Fail(InvalidArgumentError("--retain-epochs must be >= 0"));
  }
  if (full_snapshot_interval < 1) {
    return Fail(
        InvalidArgumentError("--full-snapshot-interval must be >= 1"));
  }
  if (full_snapshot_interval > 1 && wal_dir.empty()) {
    return Fail(InvalidArgumentError(
        "--full-snapshot-interval needs --wal (there are no checkpoints "
        "to thin without a durability directory)"));
  }
  if (warmup_pct < 1 || warmup_pct > 99) {
    return Fail(InvalidArgumentError("--warmup-pct must be in [1, 99]"));
  }
  if (shards < 1) return Fail(InvalidArgumentError("--shards must be >= 1"));
  if (seal_records < 0) {
    return Fail(InvalidArgumentError("--seal-records must be >= 0"));
  }
  if (seal_interval < 0.0) {
    return Fail(InvalidArgumentError("--seal-interval must be >= 0"));
  }
  if (seal_interval > 0.0 && !auto_maintain) {
    return Fail(InvalidArgumentError(
        "--seal-interval needs --auto-maintain (the caller loop seals by "
        "--seal-records)"));
  }
  if (flags.Has("threshold")) {
    // The overlay's dirty-cell fold threshold has no serving-layer
    // equivalent; silently ignoring it would change fold behavior under
    // the user's feet.
    return Fail(InvalidArgumentError(
        "--threshold was removed: stream now serves sealed epochs "
        "(use --seal-records N to defer seals)"));
  }

  // One model fit scores every record; the stream then replays records in
  // arrival order against those scores.
  Rng rng(flags.GetInt("seed", 20240601));
  auto split = MakeStratifiedSplit(dataset->labels(0), 0.25, rng);
  if (!split.ok()) return Fail(split.status());
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  auto trained = TrainOnBaseGrid(*dataset, *split, *prototype, EvalOptions{});
  if (!trained.ok()) return Fail(trained.status());

  AggregateBatch all;
  all.cell_ids = dataset->base_cells();
  all.labels = dataset->labels(0);
  all.scores = trained->scores;
  const size_t n = dataset->num_records();
  const size_t warmup =
      std::max<size_t>(1, n * static_cast<size_t>(warmup_pct) / 100);
  const bool refine = flags.Has("refine-bound");

  // Warmup prefix: sealed epoch 0 + the initial maintained partition.
  const AggregateBatch warm = all.Slice(0, warmup);

  FairIndexServiceOptions options;
  options.algorithm = flags.Get("algorithm", "fair_kd_tree");
  options.build.height = height;
  options.build.num_threads = flags.GetInt("threads", 1);
  options.store.num_shards = shards;
  options.store.num_threads = flags.GetInt("threads", 1);
  options.refine.drift_bound = flags.GetDouble("refine-bound", 0.02);
  if (auto_maintain) {
    options.auto_maintain = true;
    // --seal-records 0 means "every batch" in caller mode; for the
    // scheduler that is a 1-record cadence — UNLESS an interval was
    // given, in which case 0 disables the record cadence so the wall
    // clock alone governs (an interval-only policy stays expressible).
    options.maintain.seal_records =
        seal_records > 0 ? seal_records : (seal_interval > 0.0 ? 0 : 1);
    options.maintain.seal_interval_seconds = seal_interval;
    options.maintain.drift_bound =
        refine ? flags.GetDouble("refine-bound", 0.02) : -1.0;
    options.maintain.retain_epochs = retain_epochs;
  }
  if (!wal_dir.empty()) {
    options.durability.wal_dir = wal_dir;
    options.durability.checkpoint_interval =
        flags.GetInt("checkpoint-interval", 8);
    options.durability.full_snapshot_interval = full_snapshot_interval;
    auto fsync = ParseWalFsync(flags.Get("fsync", "batch"));
    if (!fsync.ok()) return Fail(fsync.status());
    options.durability.fsync = *fsync;
  }

  // Recover-or-create: a WAL directory that already holds a checkpoint
  // means a previous run (possibly killed mid-stream) owns this state —
  // rebuild that run's exact service and resume at the first record it
  // never accepted.
  Result<std::unique_ptr<FairIndexService>> service =
      InternalError("unset");
  size_t resume = warmup;
  bool recovered = false;
  if (!wal_dir.empty()) {
    auto checkpoints = ListCheckpoints(wal_dir);
    recovered = checkpoints.ok() && !checkpoints->empty();
  }
  if (recovered) {
    service = FairIndexService::Recover(dataset->grid(), options);
    if (!service.ok()) return Fail(service.status());
    // Records stream in dataset order and every accepted record is
    // logged exactly once, so the store's record count IS the resume
    // position.
    const long long accepted = (*service)->store().num_records();
    resume = std::min(n, static_cast<size_t>(std::max(0LL, accepted)));
    std::printf("recovered from %s: %lld records, epoch %lld, %zu regions "
                "(resuming at record %zu)\n",
                wal_dir.c_str(), accepted, (*service)->store().epoch(),
                (*service)->regions()->size(), resume);
  } else {
    service = FairIndexService::Create(dataset->grid(), warm, options);
    if (!service.ok()) return Fail(service.status());
  }

  std::printf("kernels: %s (crc32c %s)\n", SimdTierName(DetectedSimdTier()),
              CrcHardwareAvailable() ? "hardware" : "software");
  std::printf("streaming %zu records into a height-%d %s partition "
              "(%zu regions, %zu warmup records, batch %d, %d shard%s%s%s%s)\n",
              n - resume, height, options.algorithm.c_str(),
              (*service)->regions()->size(), warmup, batch, shards,
              shards == 1 ? "" : "s",
              refine ? ", incremental refine on" : "",
              auto_maintain ? ", background maintenance on" : "",
              wal_dir.empty() ? "" : ", durable");
  TablePrinter table({"batch", "records", "pending", "epoch", "regions",
                      "resplits", "region_ence"});
  const ShardedDeltaStore& store = (*service)->store();
  const RegionEnceResult warm_ence = RegionEnce((*service)->QueryRegions());
  table.AddRow({"warmup", std::to_string(store.num_records()),
                std::to_string(store.pending_records()),
                std::to_string(store.epoch()),
                std::to_string((*service)->regions()->size()), "0",
                TablePrinter::FormatDouble(warm_ence.ence, 5)});

  int batch_index = 0;
  for (size_t next = resume; next < n;) {
    const size_t end = std::min(n, next + static_cast<size_t>(batch));
    if (auto seq = (*service)->Ingest(all.Slice(next, end)); !seq.ok()) {
      return Fail(seq.status());
    }
    next = end;
    if (crash_after > 0 && batch_index + 1 >= crash_after) {
      // Crash-recovery testing: die the way a real crash does — SIGKILL
      // runs no destructors, flushes no WAL buffer, writes no checkpoint.
      // Placed after Ingest and before the seal so the newest batch is in
      // the fsync=none group-commit buffer, the loss window recovery must
      // tolerate (the rerun resumes from the clean prefix and re-sends).
      std::fprintf(stderr, "crash-after-batches: SIGKILL after batch %d\n",
                   batch_index + 1);
      std::raise(SIGKILL);
    }
    // Seal policy: fold once enough records are pending (0 = every
    // batch). MaybeRefine seals itself, then re-splits any subtree that
    // drifted past the bound on that sealed epoch. Under --auto-maintain
    // the background scheduler does all of this; the resplits column then
    // reports the cumulative count it has published so far.
    int resplits = 0;
    if (auto_maintain) {
      resplits = static_cast<int>((*service)->total_resplits());
    } else if (store.pending_records() >= seal_records) {
      if (refine) {
        auto refined = (*service)->MaybeRefine();
        if (!refined.ok()) return Fail(refined.status());
        resplits = refined->stats.subtrees_rebuilt;
      } else {
        if (auto sealed = (*service)->Seal(); !sealed.ok()) {
          return Fail(sealed.status());
        }
      }
      if (retain_epochs > 0) (*service)->ApplyRetention(retain_epochs);
    }
    const RegionEnceResult ence = RegionEnce((*service)->QueryRegions());
    table.AddRow({std::to_string(++batch_index),
                  std::to_string(store.num_records()),
                  std::to_string(store.pending_records()),
                  std::to_string(store.epoch()),
                  std::to_string((*service)->regions()->size()),
                  std::to_string(resplits),
                  TablePrinter::FormatDouble(ence.ence, 5)});
  }
  table.Print(std::cout);

  // Quiesce background maintenance (joins any in-flight pass), then seal
  // the tail and show the exact final state.
  if (auto_maintain) (*service)->StopMaintenance();
  if (auto sealed = (*service)->Seal(); !sealed.ok()) {
    return Fail(sealed.status());
  }
  const std::vector<RegionAggregate> final_regions =
      (*service)->QueryRegions();
  const RegionEnceResult final_ence = RegionEnce(final_regions);
  std::printf(
      "final: %lld records, %lld sealed epochs, %lld subtree re-splits, "
      "region ENCE %.5f\n",
      store.num_records(), store.epoch(), (*service)->total_resplits(),
      final_ence.ence);
  // Maintenance pipeline summary: how many publications took the
  // O(changed area) cell-map patch path versus the full O(grid) rebuild
  // fallback, plus the scheduler's pass counters under --auto-maintain
  // (service-level counters cover caller-driven refines too).
  std::printf(
      "maintenance: %lld publications (%lld patched / %lld fallback)",
      (*service)->publications_patched() +
          (*service)->publications_fallback(),
      (*service)->publications_patched(),
      (*service)->publications_fallback());
  if (auto_maintain) {
    const MaintenanceStats mstats = (*service)->maintenance_stats();
    std::printf(", %lld passes, %lld refines, %lld errors", mstats.passes,
                mstats.refines, mstats.errors);
  }
  if (!wal_dir.empty()) {
    std::printf(", max publish stall %lld us, max checkpoint stall %lld us",
                (*service)->max_publish_stall_us(),
                (*service)->max_checkpoint_stall_us());
  }
  std::printf("\n");
  if (flags.Has("regions-out")) {
    // Full double precision (%.17g round-trips IEEE-754 exactly): the
    // crash-recovery CI lane byte-diffs this file between a killed+
    // recovered run and an uninterrupted reference.
    const std::string out = flags.Get("regions-out");
    std::ofstream file(out);
    if (!file) return Fail(InternalError("cannot open " + out));
    file << "region,count,sum_labels,sum_scores,sum_residuals,"
            "sum_cell_abs_miscalibration\n";
    char line[256];
    for (size_t i = 0; i < final_regions.size(); ++i) {
      const RegionAggregate& region = final_regions[i];
      std::snprintf(line, sizeof(line),
                    "%zu,%.17g,%.17g,%.17g,%.17g,%.17g\n", i, region.count,
                    region.sum_labels, region.sum_scores,
                    region.sum_residuals,
                    region.sum_cell_abs_miscalibration);
      file << line;
    }
    std::fprintf(stderr, "wrote %zu region aggregates to %s\n",
                 final_regions.size(), out.c_str());
  }
  return 0;
}

// `check <scenario.cfg>`: parse + validate only, no dataset load and no
// run. The doc-snippet CI lane (tools/check_doc_snippets.py) feeds every
// fenced cfg block from docs/ through this, so documented examples can
// never rot out of the parser's accepted grammar.
int CmdCheck(const std::string& path) {
  auto config = LoadScenarioFile(path);
  if (!config.ok()) return Fail(config.status());
  const char* workload = "pipeline";
  if (config->workload == ScenarioWorkload::kStream) workload = "stream";
  if (config->workload == ScenarioWorkload::kServe) workload = "serve";
  if (config->workload == ScenarioWorkload::kMultiTenant) {
    workload = "multi_tenant";
  }
  std::printf("ok: %s (workload %s, %zu runs, %zu tenants)\n",
              config->name.c_str(), workload,
              config->algorithms.size() * config->heights.size() *
                  config->seeds.size(),
              config->tenants.size());
  return 0;
}

// `--help` goes to stdout and exits 0; a usage ERROR goes to stderr and
// exits 2. Both print the same spec-generated text, so the accepted
// flag set and the help can never disagree (tests/cli_spec_test.cc).
int Help() {
  std::fputs(CliHelpText().c_str(), stdout);
  return 0;
}

int Usage() {
  std::fputs(CliHelpText().c_str(), stderr);
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "help") return Help();
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) return Help();
  }
  // `run <scenario.cfg>`: a positional (non-flag) argument selects the
  // declarative path. `check <scenario.cfg>` only parses + validates.
  const bool positional =
      argc > 2 && std::strncmp(argv[2], "--", 2) != 0;
  if ((command == "run" && positional) || command == "check") {
    if (command == "check" && !positional) {
      std::fprintf(stderr, "check takes exactly one scenario file\n");
      return Usage();
    }
    if (argc > 3) {
      std::fprintf(stderr, "%s <scenario.cfg> takes no further arguments\n",
                   command.c_str());
      return Usage();
    }
    return command == "check" ? CmdCheck(argv[2]) : CmdRunScenario(argv[2]);
  }
  const Flags flags(argc, argv, 2, command);
  if (!flags.ok()) return Usage();
  if (!flags.value_error().ok()) {
    std::fprintf(stderr, "error: %s\n", flags.value_error().message().c_str());
    return 1;
  }
  if (command == "generate") return CmdGenerate(flags);
  if (command == "run") return CmdRun(flags);
  if (command == "sweep") return CmdSweep(flags);
  if (command == "disparity") return CmdDisparity(flags);
  if (command == "export") return CmdExport(flags);
  if (command == "stream") return CmdStream(flags);
  return Usage();
}

}  // namespace
}  // namespace cli
}  // namespace fairidx

int main(int argc, char** argv) { return fairidx::cli::Main(argc, argv); }
