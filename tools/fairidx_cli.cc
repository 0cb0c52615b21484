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
//   fairidx_cli stream    --city la [--height 6] [--batch 200] [--seed N]
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
// `run --flags`, `sweep` and `stream` are the flag forms of scenarios:
// each maps its flags onto a ScenarioConfig and calls RunScenario, so
// validation, the option mapping and the run loops live only in
// core/scenario.cc. `run` is one pipeline point and `sweep` the paper's
// height sweep. `stream` is one `workload = stream` point (the online
// re-districting demo: a warmup prefix builds the partition, the rest
// streams through a FairIndexService batch by batch) and prints the
// serving table `run scenario.cfg` prints. A flag with a scenario-key
// column in cli_spec.h sets that key through SetScenarioKey, exactly as
// a scenario line would (FlagScenario below); the mappings that are not
// renames: --batch defaults to 200, --refine-bound absent is
// drift_bound = -1 (seal without refining), --auto-maintain is
// maintain_policy = auto, and --wal DIR --tenant NAME is
// wal_dir = DIR/NAME. --algorithm names one algorithm.
//
// Durable state lives where the engine keeps a point's tenant,
// DIR/<algorithm>-h<height>-s<seed>/. Rerunning the same invocation
// recovers it (the row's state column reads `recovered`) and resumes at
// the first record the previous run never accepted. --regions-out FILE
// writes the final per-region aggregates with full double precision for
// exact diffing, and --crash-after-batches N raises SIGKILL from the
// engine's after-ingest hook once N batches were accepted, before their
// seal: the crash-recovery tests kill, rerun and byte-compare.
//
// `--csv` loads an EdGap-style extract (see data/csv_dataset.h for the
// schema); otherwise the named synthetic city is generated.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
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
#include "index/partition_io.h"
#include "service/tenant_registry.h"
#include "cli_spec.h"

namespace fairidx {
namespace cli {
namespace {

// ----- Flag parsing -------------------------------------------------

// Numeric flags are typed by their cli_spec.h value hint (N, K and P
// take an integer, B and S a real number, SEED a seed) and parsed with
// the scenario parser's ParseInt/ParseDouble/ParseSeed, so `--height
// banana`, `--batch 2x` or `--seed -1` fails instead of silently becoming
// 0, 2 or a wrapped seed.
Status CheckFlagValue(const std::string& name, const std::string& value) {
  for (const CliFlagSpec& spec : kCliFlags) {
    if (name != spec.name) continue;
    const std::string hint = spec.value;
    Status status = Status::Ok();
    if (hint == "N" || hint == "K" || hint == "P") {
      status = ParseInt(value).status();
    } else if (hint == "B" || hint == "S") {
      status = ParseDouble(value).status();
    } else if (hint == "SEED") {
      status = ParseSeed(value).status();
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
      // silently-ignored no-op.
      if (!CliCommandHasFlag(command, arg)) {
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

// The flag form of a scenario: every flag with a scenario-key column in
// cli_spec.h sets that key, the rest map as the file header says, and the
// result is validated like a scenario file. A subcommand's parser admits
// only its own flags, so the keys the workload ignores keep their
// defaults.
Result<ScenarioConfig> FlagScenario(const Flags& flags,
                                    const std::string& command,
                                    ScenarioWorkload workload) {
  ScenarioConfig config;
  config.name = command;
  config.workload = workload;
  config.stream_batch = 200;
  config.drift_bound = -1.0;
  for (const CliFlagSpec& spec : kCliFlags) {
    if (spec.scenario_key[0] == '\0' || !flags.Has(spec.name)) continue;
    FAIRIDX_RETURN_IF_ERROR(
        SetScenarioKey(&config, spec.scenario_key, flags.Get(spec.name)));
  }
  if (config.algorithms.size() != 1) {
    return InvalidArgumentError("--algorithm takes one algorithm name");
  }
  if (flags.Has("auto-maintain")) {
    config.maintain_policy = ScenarioMaintainPolicy::kAuto;
  }
  if (flags.Has("tenant")) config.wal_dir += "/" + flags.Get("tenant");
  FAIRIDX_RETURN_IF_ERROR(ValidateScenario(config));
  return config;
}

// The one report printer `run <cfg>` and `stream` share.
void PrintReport(const ScenarioReport& report) {
  if (report.workload != ScenarioWorkload::kPipeline) {
    // One row per (sweep point, tenant) for every serving workload. A
    // degraded tenant keeps its row — zeros everywhere, state says why —
    // so fleet health is visible in the same table as the latency
    // readout.
    TablePrinter table({"height", "algorithm", "seed", "tenant", "state",
                        "regions", "records", "epochs", "resplits",
                        "patched", "fallback", "lookups", "qps", "p50_us",
                        "p95_us", "p99_us", "ingest_rps", "pub_stall_us",
                        "ckpt_stall_us", "final_ence", "seconds"});
    for (const ScenarioServingRow& row : report.serving_rows) {
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
    return;
  }
  TablePrinter table({"height", "algorithm", "seed", "regions",
                      "train_ence", "test_ence", "test_acc", "build_s",
                      "fits"});
  for (const ScenarioRow& row : report.rows) {
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
}

// Runs `config` with a provenance header on stderr and prints its report.
Result<ScenarioReport> RunAndPrint(
    const ScenarioConfig& config,
    const ScenarioIngestHook& after_ingest = nullptr) {
  FAIRIDX_ASSIGN_OR_RETURN(Dataset dataset, LoadScenarioDataset(config));
  std::fprintf(stderr,
               "scenario %s: %zu runs (%zu algorithms x %zu heights x %zu "
               "seeds) on %zu records, classifier %s\n",
               config.name.c_str(),
               config.algorithms.size() * config.heights.size() *
                   config.seeds.size(),
               config.algorithms.size(), config.heights.size(),
               config.seeds.size(), dataset.num_records(),
               ClassifierKindName(config.classifier));
  std::fprintf(stderr, "kernels: %s (crc32c %s)\n",
               SimdTierName(DetectedSimdTier()),
               CrcHardwareAvailable() ? "hardware" : "software");
  FAIRIDX_ASSIGN_OR_RETURN(ScenarioReport report,
                           RunScenario(config, dataset, after_ingest));
  PrintReport(report);
  return report;
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
  auto report = RunAndPrint(*config);
  return report.ok() ? 0 : Fail(report.status());
}

// `run --flags`: one pipeline point, printed as the paper's indicators.
int CmdRun(const Flags& flags) {
  auto config = FlagScenario(flags, "run", ScenarioWorkload::kPipeline);
  if (!config.ok()) return Fail(config.status());
  auto dataset = LoadScenarioDataset(*config);
  if (!dataset.ok()) return Fail(dataset.status());
  auto report = RunScenario(*config, *dataset);
  if (!report.ok()) return Fail(report.status());

  const ScenarioRow& row = report->rows.front();
  std::printf("algorithm:        %s\n",
              PartitionAlgorithmName(row.run.algorithm));
  std::printf("kernels:          %s (crc32c %s)\n",
              SimdTierName(DetectedSimdTier()),
              CrcHardwareAvailable() ? "hardware" : "software");
  std::printf("classifier:       %s\n",
              ClassifierKindName(config->classifier));
  std::printf("height:           %d\n", row.run.height);
  std::printf("task:             %s\n",
              dataset->task_name(config->task).c_str());
  std::printf("neighborhoods:    %d\n", row.regions);
  std::printf("train ENCE:       %.5f\n", row.train_ence);
  std::printf("test ENCE:        %.5f\n", row.test_ence);
  std::printf("train accuracy:   %.4f\n", row.train_accuracy);
  std::printf("test accuracy:    %.4f\n", row.test_accuracy);
  std::printf("test |e-o|:       %.5f\n", row.test_miscalibration);
  std::printf("partition build:  %.3fs (%d model fits)\n",
              row.partition_seconds, row.model_fits);
  return 0;
}

// `sweep`: the paper's height sweep over one algorithm, or over the four
// the paper compares.
int CmdSweep(const Flags& flags) {
  auto config = FlagScenario(flags, "sweep", ScenarioWorkload::kPipeline);
  if (!config.ok()) return Fail(config.status());
  config->heights = PaperHeightSweep();
  if (!flags.Has("algorithm")) {
    config->algorithms = {PartitionAlgorithm::kMedianKdTree,
                          PartitionAlgorithm::kFairKdTree,
                          PartitionAlgorithm::kIterativeFairKdTree,
                          PartitionAlgorithm::kUniformGridReweight};
  }
  auto report = RunScenario(*config);
  if (!report.ok()) return Fail(report.status());

  TablePrinter table({"height", "algorithm", "regions", "train_ence",
                      "test_ence", "test_accuracy"});
  for (const ScenarioRow& row : report->rows) {
    table.AddRow({std::to_string(row.run.height),
                  PartitionAlgorithmName(row.run.algorithm),
                  std::to_string(row.regions),
                  TablePrinter::FormatDouble(row.train_ence, 5),
                  TablePrinter::FormatDouble(row.test_ence, 5),
                  TablePrinter::FormatDouble(row.test_accuracy, 4)});
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

// The rules only the flag form has: --tenant, --crash-after-batches and
// a thinned checkpoint cadence all need a durability directory.
Status CheckStreamFlags(const Flags& flags) {
  const bool durable = !flags.Get("wal").empty();
  if (flags.Has("tenant")) {
    if (!durable) {
      return InvalidArgumentError(
          "--tenant needs --wal (it names a durability namespace)");
    }
    if (Status status = ValidateTenantName(flags.Get("tenant"));
        !status.ok()) {
      return InvalidArgumentError("--tenant: " + status.message());
    }
  }
  const int crash_after = flags.GetInt("crash-after-batches", 0);
  if (crash_after < 0) {
    return InvalidArgumentError("--crash-after-batches must be >= 0");
  }
  if (crash_after > 0 && !durable) {
    return InvalidArgumentError(
        "--crash-after-batches needs --wal (a crash without a log is just "
        "data loss)");
  }
  if (flags.GetInt("full-snapshot-interval", 1) > 1 && !durable) {
    return InvalidArgumentError(
        "--full-snapshot-interval needs --wal (there are no checkpoints "
        "to thin without a durability directory)");
  }
  return Status::Ok();
}

// Writes the final per-region aggregates with full double precision
// (%.17g round-trips IEEE-754 exactly), so a killed-and-recovered run's
// file can be byte-compared with an uninterrupted run's.
int WriteRegions(const std::string& out,
                 const std::vector<RegionAggregate>& regions) {
  std::ofstream file(out);
  if (!file) return Fail(InternalError("cannot open " + out));
  file << "region,count,sum_labels,sum_scores,sum_residuals,"
          "sum_cell_abs_miscalibration\n";
  char line[256];
  for (size_t i = 0; i < regions.size(); ++i) {
    const RegionAggregate& region = regions[i];
    std::snprintf(line, sizeof(line), "%zu,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                  i, region.count, region.sum_labels, region.sum_scores,
                  region.sum_residuals, region.sum_cell_abs_miscalibration);
    file << line;
  }
  std::fprintf(stderr, "wrote %zu region aggregates to %s\n",
               regions.size(), out.c_str());
  return 0;
}

int CmdStream(const Flags& flags) {
  if (Status status = CheckStreamFlags(flags); !status.ok()) {
    return Fail(status);
  }
  auto config = FlagScenario(flags, "stream", ScenarioWorkload::kStream);
  if (!config.ok()) return Fail(config.status());
  // SIGKILL runs no destructors, flushes no WAL buffer and writes no
  // checkpoint, so under --fsync none the newest batch dies in the
  // group-commit buffer: the loss window recovery must tolerate (the
  // rerun resumes from the clean prefix and re-sends).
  const int crash_after = flags.GetInt("crash-after-batches", 0);
  int batches = 0;
  ScenarioIngestHook crash;
  if (crash_after > 0) {
    crash = [&batches, crash_after] {
      if (++batches < crash_after) return;
      std::fprintf(stderr, "crash-after-batches: SIGKILL after batch %d\n",
                   batches);
      std::raise(SIGKILL);
    };
  }
  auto report = RunAndPrint(*config, crash);
  if (!report.ok()) return Fail(report.status());
  if (!flags.Has("regions-out")) return 0;
  return WriteRegions(flags.Get("regions-out"),
                      report->serving_rows.front().final_regions);
}

// `check <scenario.cfg>`: parse + validate only, no dataset load and no
// run. The doc-snippet CI lane (tools/check_doc_snippets.py) feeds every
// fenced cfg block from docs/ through this, so documented examples can
// never rot out of the parser's accepted grammar.
int CmdCheck(const std::string& path) {
  auto config = LoadScenarioFile(path);
  if (!config.ok()) return Fail(config.status());
  std::printf("ok: %s (workload %s, %zu runs, %zu tenants)\n",
              config->name.c_str(),
              ScenarioWorkloadName(config->workload).c_str(),
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
