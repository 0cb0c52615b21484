#include "core/scenario.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/csv_dataset.h"
#include "data/edgap_synthetic.h"
#include "fairness/region_metrics.h"
#include "service/fair_index_service.h"
#include "service/tenant_registry.h"

namespace fairidx {
namespace {

// Includes may nest (base configs including base configs) but a cycle must
// terminate with a readable error, not a stack overflow.
constexpr int kMaxIncludeDepth = 8;

std::string DirnameOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string ResolvePath(const std::string& include_dir,
                        const std::string& path) {
  if (path.empty() || path[0] == '/' || include_dir.empty()) return path;
  return include_dir + "/" + path;
}

Result<std::vector<std::string>> SplitList(const std::string& value) {
  std::vector<std::string> items;
  for (const std::string& raw : Split(value, ',')) {
    std::string item = Trim(raw);
    if (item.empty()) {
      return InvalidArgumentError("empty element in list '" + value + "'");
    }
    items.push_back(std::move(item));
  }
  if (items.empty()) {
    return InvalidArgumentError("empty list");
  }
  return items;
}

// Heights accept both comma lists and inclusive "lo..hi" ranges.
Result<std::vector<int>> ParseHeights(const std::string& value) {
  std::vector<int> heights;
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<std::string> items,
                           SplitList(value));
  for (const std::string& item : items) {
    const size_t dots = item.find("..");
    if (dots != std::string::npos) {
      FAIRIDX_ASSIGN_OR_RETURN(int lo, ParseInt(item.substr(0, dots)));
      FAIRIDX_ASSIGN_OR_RETURN(int hi, ParseInt(item.substr(dots + 2)));
      if (lo > hi) {
        return InvalidArgumentError("empty height range '" + item + "'");
      }
      for (int h = lo; h <= hi; ++h) heights.push_back(h);
    } else {
      FAIRIDX_ASSIGN_OR_RETURN(int height, ParseInt(item));
      heights.push_back(height);
    }
  }
  for (int height : heights) {
    if (height < 0) {
      return InvalidArgumentError("heights must be >= 0");
    }
  }
  return heights;
}

Result<uint64_t> ParseOneSeed(const std::string& item) {
  // Digits only: strtoull would silently wrap a leading '-' and
  // saturate on overflow, changing every split in the sweep.
  if (item.find_first_not_of("0123456789") != std::string::npos) {
    return InvalidArgumentError("bad seed '" + item + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(item.c_str(), &end, 10);
  if (end == item.c_str() || *end != '\0' || errno == ERANGE) {
    return InvalidArgumentError("bad seed '" + item + "'");
  }
  return static_cast<uint64_t>(seed);
}

Result<std::vector<uint64_t>> ParseSeeds(const std::string& value) {
  std::vector<uint64_t> seeds;
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<std::string> items,
                           SplitList(value));
  for (const std::string& item : items) {
    FAIRIDX_ASSIGN_OR_RETURN(uint64_t seed, ParseOneSeed(item));
    seeds.push_back(seed);
  }
  return seeds;
}

Result<std::vector<PartitionAlgorithm>> ParseAlgorithms(
    const std::string& value) {
  std::vector<PartitionAlgorithm> algorithms;
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<std::string> items,
                           SplitList(value));
  for (const std::string& item : items) {
    if (item == "all") {
      for (PartitionAlgorithm algorithm : AllPartitionAlgorithms()) {
        algorithms.push_back(algorithm);
      }
      continue;
    }
    FAIRIDX_ASSIGN_OR_RETURN(PartitionAlgorithm algorithm,
                             ParsePartitionAlgorithm(item));
    algorithms.push_back(algorithm);
  }
  return algorithms;
}

// Every key the if-chain in ParseInto accepts, including aliases, in the
// chain's own order. Kept adjacent to the chain so an edit to one is an
// edit to both; tests/serve_scenario_test.cc cross-checks this list
// against the parser's actual behavior AND against the key table in
// docs/scenario_reference.md, so neither the list nor the doc can rot.
constexpr const char* kScenarioKeys[] = {
    "include",         "name",
    "city",            "csv",
    "classifier",      "algorithms",
    "algorithm",       "heights",
    "height",          "seeds",
    "seed",            "task",
    "threads",         "test_fraction",
    "min_region_population",
    "workload",        "stream_batch",
    "stream_shards",   "stream_warmup_pct",
    "stream_seal_records",
    "maintain_policy", "seal_interval",
    "drift_bound",     "wal_dir",
    "checkpoint_interval",
    "full_snapshot_interval",
    "fsync",           "retain_epochs",
    "serve_readers",   "serve_lookups",
    "serve_batch",     "serve_read_pct",
    "serve_zipf",      "drift",
    "drift_hot_pct",   "drift_window_pct",
};

// Every sub-key ParseTenantKey accepts inside a tenant.<name>.<key>
// section, in its dispatch order, spelled the way the reference doc
// lists them. Same anti-rot contract as kScenarioKeys: the doc table is
// test-enforced against ScenarioKeyNames() + TenantScenarioKeyNames().
constexpr const char* kTenantKeys[] = {
    "city",          "algorithm",
    "height",        "seed",
    "batch",         "shards",
    "warmup_pct",    "seal_records",
    "seal_interval", "drift_bound",
    "retain_epochs", "lookups",
    "read_pct",      "zipf",
    "drift",         "fsync",
    "checkpoint_interval",
    "full_snapshot_interval",
};

// One `tenant.<name>.<key> = value` line: find-or-create the named
// section (first-appearance order) and set the override. Values are
// validated here the way the top-level keys are; range checks live in
// ValidateScenario next to their top-level twins.
Status ParseTenantKey(const std::string& key, const std::string& value,
                      ScenarioConfig* config) {
  const std::string rest = key.substr(7);  // past "tenant."
  const size_t dot = rest.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= rest.size()) {
    return InvalidArgumentError(
        "tenant keys are spelled tenant.<name>.<key>, got '" + key + "'");
  }
  const std::string name = rest.substr(0, dot);
  const std::string sub = rest.substr(dot + 1);
  FAIRIDX_RETURN_IF_ERROR(ValidateTenantName(name));
  ScenarioTenantConfig* tenant = nullptr;
  for (ScenarioTenantConfig& existing : config->tenants) {
    if (existing.name == name) tenant = &existing;
  }
  if (tenant == nullptr) {
    config->tenants.emplace_back();
    config->tenants.back().name = name;
    tenant = &config->tenants.back();
  }
  if (sub == "city") {
    tenant->city = value;
  } else if (sub == "algorithm") {
    FAIRIDX_RETURN_IF_ERROR(ParsePartitionAlgorithm(value).status());
    tenant->algorithm = value;
  } else if (sub == "height") {
    FAIRIDX_ASSIGN_OR_RETURN(int height, ParseInt(value));
    tenant->height = height;
  } else if (sub == "seed") {
    FAIRIDX_ASSIGN_OR_RETURN(uint64_t seed, ParseOneSeed(value));
    tenant->seed = seed;
  } else if (sub == "batch") {
    FAIRIDX_ASSIGN_OR_RETURN(int batch, ParseInt(value));
    tenant->batch = batch;
  } else if (sub == "shards") {
    FAIRIDX_ASSIGN_OR_RETURN(int shards, ParseInt(value));
    tenant->shards = shards;
  } else if (sub == "warmup_pct") {
    FAIRIDX_ASSIGN_OR_RETURN(int pct, ParseInt(value));
    tenant->warmup_pct = pct;
  } else if (sub == "seal_records") {
    FAIRIDX_ASSIGN_OR_RETURN(int records, ParseInt(value));
    tenant->seal_records = records;
  } else if (sub == "seal_interval") {
    FAIRIDX_ASSIGN_OR_RETURN(double interval, ParseDouble(value));
    tenant->seal_interval = interval;
  } else if (sub == "drift_bound") {
    FAIRIDX_ASSIGN_OR_RETURN(double bound, ParseDouble(value));
    tenant->drift_bound = bound;
  } else if (sub == "retain_epochs") {
    FAIRIDX_ASSIGN_OR_RETURN(int retain, ParseInt(value));
    tenant->retain_epochs = retain;
  } else if (sub == "lookups") {
    FAIRIDX_ASSIGN_OR_RETURN(int lookups, ParseInt(value));
    tenant->lookups = lookups;
  } else if (sub == "read_pct") {
    FAIRIDX_ASSIGN_OR_RETURN(int pct, ParseInt(value));
    tenant->read_pct = pct;
  } else if (sub == "zipf") {
    FAIRIDX_ASSIGN_OR_RETURN(double zipf, ParseDouble(value));
    tenant->zipf = zipf;
  } else if (sub == "drift") {
    tenant->drift = value;
  } else if (sub == "fsync") {
    tenant->fsync = value;
  } else if (sub == "checkpoint_interval") {
    FAIRIDX_ASSIGN_OR_RETURN(int interval, ParseInt(value));
    tenant->checkpoint_interval = interval;
  } else if (sub == "full_snapshot_interval") {
    FAIRIDX_ASSIGN_OR_RETURN(int interval, ParseInt(value));
    tenant->full_snapshot_interval = interval;
  } else {
    return InvalidArgumentError("unknown scenario key '" + key +
                                "' (see TenantScenarioKeyNames for the "
                                "accepted tenant.<name>.* sub-keys)");
  }
  return Status::Ok();
}

Status ParseInto(const std::string& text, const std::string& include_dir,
                 int depth, ScenarioConfig* config);

Status IncludeFile(const std::string& path, int depth,
                   ScenarioConfig* config) {
  if (depth > kMaxIncludeDepth) {
    return InvalidArgumentError(
        "scenario include depth exceeded (include cycle?)");
  }
  std::ifstream file(path);
  if (!file) {
    return NotFoundError("cannot open scenario file '" + path + "'");
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  return ParseInto(buffer.str(), DirnameOf(path), depth, config);
}

Status ParseInto(const std::string& text, const std::string& include_dir,
                 int depth, ScenarioConfig* config) {
  int line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string line = raw_line;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;

    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError(
          StrFormat("scenario line %d: expected 'key = value', got '%s'",
                    line_number, line.c_str()));
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return InvalidArgumentError(
          StrFormat("scenario line %d: empty key or value", line_number));
    }

    Status status = Status::Ok();
    if (key == "include") {
      status = IncludeFile(ResolvePath(include_dir, value), depth + 1,
                           config);
    } else if (key == "name") {
      config->name = value;
    } else if (key == "city") {
      config->city = value;
    } else if (key == "csv") {
      config->csv = ResolvePath(include_dir, value);
    } else if (key == "classifier") {
      auto kind = ParseClassifierKind(value);
      if (kind.ok()) config->classifier = *kind;
      status = kind.ok() ? Status::Ok() : kind.status();
    } else if (key == "algorithms" || key == "algorithm") {
      auto algorithms = ParseAlgorithms(value);
      if (algorithms.ok()) config->algorithms = std::move(*algorithms);
      status = algorithms.ok() ? Status::Ok() : algorithms.status();
    } else if (key == "heights" || key == "height") {
      auto heights = ParseHeights(value);
      if (heights.ok()) config->heights = std::move(*heights);
      status = heights.ok() ? Status::Ok() : heights.status();
    } else if (key == "seeds" || key == "seed") {
      auto seeds = ParseSeeds(value);
      if (seeds.ok()) config->seeds = std::move(*seeds);
      status = seeds.ok() ? Status::Ok() : seeds.status();
    } else if (key == "task") {
      auto task = ParseInt(value);
      if (task.ok()) config->task = *task;
      status = task.ok() ? Status::Ok() : task.status();
    } else if (key == "threads") {
      auto threads = ParseInt(value);
      if (threads.ok()) config->threads = *threads;
      status = threads.ok() ? Status::Ok() : threads.status();
    } else if (key == "test_fraction") {
      auto fraction = ParseDouble(value);
      if (fraction.ok()) config->test_fraction = *fraction;
      status = fraction.ok() ? Status::Ok() : fraction.status();
    } else if (key == "min_region_population") {
      auto population = ParseDouble(value);
      if (population.ok()) config->min_region_population = *population;
      status = population.ok() ? Status::Ok() : population.status();
    } else if (key == "workload") {
      if (value == "pipeline") {
        config->workload = ScenarioWorkload::kPipeline;
      } else if (value == "stream") {
        config->workload = ScenarioWorkload::kStream;
      } else if (value == "serve") {
        config->workload = ScenarioWorkload::kServe;
      } else if (value == "multi_tenant") {
        config->workload = ScenarioWorkload::kMultiTenant;
      } else {
        status = InvalidArgumentError(
            "unknown workload '" + value +
            "' (expected pipeline|stream|serve|multi_tenant)");
      }
    } else if (key == "stream_batch") {
      auto batch = ParseInt(value);
      if (batch.ok()) config->stream_batch = *batch;
      status = batch.ok() ? Status::Ok() : batch.status();
    } else if (key == "stream_shards") {
      auto shards = ParseInt(value);
      if (shards.ok()) config->stream_shards = *shards;
      status = shards.ok() ? Status::Ok() : shards.status();
    } else if (key == "stream_warmup_pct") {
      auto pct = ParseInt(value);
      if (pct.ok()) config->stream_warmup_pct = *pct;
      status = pct.ok() ? Status::Ok() : pct.status();
    } else if (key == "stream_seal_records") {
      auto seal = ParseInt(value);
      if (seal.ok()) config->stream_seal_records = *seal;
      status = seal.ok() ? Status::Ok() : seal.status();
    } else if (key == "maintain_policy") {
      if (value == "caller") {
        config->maintain_policy = ScenarioMaintainPolicy::kCaller;
      } else if (value == "auto") {
        config->maintain_policy = ScenarioMaintainPolicy::kAuto;
      } else {
        status = InvalidArgumentError("unknown maintain_policy '" + value +
                                      "' (expected caller|auto)");
      }
    } else if (key == "seal_interval") {
      auto interval = ParseDouble(value);
      if (interval.ok()) config->seal_interval = *interval;
      status = interval.ok() ? Status::Ok() : interval.status();
    } else if (key == "drift_bound") {
      auto bound = ParseDouble(value);
      if (bound.ok()) config->drift_bound = *bound;
      status = bound.ok() ? Status::Ok() : bound.status();
    } else if (key == "wal_dir") {
      config->wal_dir = value;
    } else if (key == "checkpoint_interval") {
      auto interval = ParseInt(value);
      if (interval.ok()) config->checkpoint_interval = *interval;
      status = interval.ok() ? Status::Ok() : interval.status();
    } else if (key == "full_snapshot_interval") {
      auto interval = ParseInt(value);
      if (interval.ok()) config->full_snapshot_interval = *interval;
      status = interval.ok() ? Status::Ok() : interval.status();
    } else if (key == "fsync") {
      config->fsync = value;
    } else if (key == "retain_epochs") {
      auto retain = ParseInt(value);
      if (retain.ok()) config->retain_epochs = *retain;
      status = retain.ok() ? Status::Ok() : retain.status();
    } else if (key == "serve_readers") {
      auto readers = ParseInt(value);
      if (readers.ok()) config->serve_readers = *readers;
      status = readers.ok() ? Status::Ok() : readers.status();
    } else if (key == "serve_lookups") {
      auto lookups = ParseInt(value);
      if (lookups.ok()) config->serve_lookups = *lookups;
      status = lookups.ok() ? Status::Ok() : lookups.status();
    } else if (key == "serve_batch") {
      auto batch = ParseInt(value);
      if (batch.ok()) config->serve_batch = *batch;
      status = batch.ok() ? Status::Ok() : batch.status();
    } else if (key == "serve_read_pct") {
      auto pct = ParseInt(value);
      if (pct.ok()) config->serve_read_pct = *pct;
      status = pct.ok() ? Status::Ok() : pct.status();
    } else if (key == "serve_zipf") {
      auto zipf = ParseDouble(value);
      if (zipf.ok()) config->serve_zipf = *zipf;
      status = zipf.ok() ? Status::Ok() : zipf.status();
    } else if (key == "drift") {
      config->drift = value;
    } else if (key == "drift_hot_pct") {
      auto pct = ParseInt(value);
      if (pct.ok()) config->drift_hot_pct = *pct;
      status = pct.ok() ? Status::Ok() : pct.status();
    } else if (key == "drift_window_pct") {
      auto pct = ParseInt(value);
      if (pct.ok()) config->drift_window_pct = *pct;
      status = pct.ok() ? Status::Ok() : pct.status();
    } else if (key.rfind("tenant.", 0) == 0) {
      status = ParseTenantKey(key, value, config);
    } else {
      status = InvalidArgumentError("unknown scenario key '" + key + "'");
    }
    if (!status.ok()) {
      return InvalidArgumentError(
          StrFormat("scenario line %d: %s", line_number,
                    status.ToString().c_str()));
    }
  }
  return Status::Ok();
}

Status ValidateDriftKind(const std::string& key, const std::string& drift) {
  if (drift == "none" || drift == "hotspot" || drift == "flash_crowd") {
    return Status::Ok();
  }
  return InvalidArgumentError("scenario: unknown " + key + " '" + drift +
                              "' (expected none|hotspot|flash_crowd)");
}

Status ValidateScenario(const ScenarioConfig& config) {
  if (config.algorithms.empty()) {
    return InvalidArgumentError("scenario: no algorithms");
  }
  if (config.heights.empty()) {
    return InvalidArgumentError("scenario: no heights");
  }
  if (config.seeds.empty()) {
    return InvalidArgumentError("scenario: no seeds");
  }
  if (config.task < 0) {
    return InvalidArgumentError("scenario: task must be >= 0");
  }
  if (config.threads < 1) {
    return InvalidArgumentError("scenario: threads must be >= 1");
  }
  if (config.test_fraction <= 0.0 || config.test_fraction >= 1.0) {
    return InvalidArgumentError(
        "scenario: test_fraction must be in (0, 1)");
  }
  if (config.stream_batch < 1) {
    return InvalidArgumentError("scenario: stream_batch must be >= 1");
  }
  if (config.stream_shards < 1) {
    return InvalidArgumentError("scenario: stream_shards must be >= 1");
  }
  if (config.stream_warmup_pct < 1 || config.stream_warmup_pct > 99) {
    return InvalidArgumentError(
        "scenario: stream_warmup_pct must be in [1, 99]");
  }
  if (config.stream_seal_records < 0) {
    return InvalidArgumentError(
        "scenario: stream_seal_records must be >= 0");
  }
  // The stream, serve and multi_tenant workloads all drive the serving
  // layer; the keys below are meaningful for any of them and typos for
  // pipeline.
  const bool serving_workload =
      config.workload == ScenarioWorkload::kStream ||
      config.workload == ScenarioWorkload::kServe ||
      config.workload == ScenarioWorkload::kMultiTenant;
  if (serving_workload && config.min_region_population > 0.0) {
    // The serving layer has no region-merging post-process; silently
    // dropping the key would violate the engine's typo-proof stance.
    return InvalidArgumentError(
        "scenario: min_region_population is not supported with "
        "workload = stream, serve or multi_tenant");
  }
  if (config.seal_interval < 0.0) {
    return InvalidArgumentError("scenario: seal_interval must be >= 0");
  }
  if (config.maintain_policy == ScenarioMaintainPolicy::kAuto &&
      !serving_workload) {
    // Background maintenance only exists on the serving path; silently
    // ignoring the key on a pipeline sweep would hide the typo.
    return InvalidArgumentError(
        "scenario: maintain_policy = auto requires workload = stream, "
        "serve or multi_tenant");
  }
  if (config.seal_interval > 0.0 &&
      config.maintain_policy != ScenarioMaintainPolicy::kAuto) {
    return InvalidArgumentError(
        "scenario: seal_interval requires maintain_policy = auto (the "
        "caller loop seals by stream_seal_records)");
  }
  if (!config.wal_dir.empty() && !serving_workload) {
    // Durability only exists on the serving path; dropping the key on a
    // pipeline sweep would hide the typo.
    return InvalidArgumentError(
        "scenario: wal_dir requires workload = stream, serve or "
        "multi_tenant");
  }
  if (config.full_snapshot_interval < 1) {
    return InvalidArgumentError(
        "scenario: full_snapshot_interval must be >= 1");
  }
  if (!ParseWalFsync(config.fsync).ok()) {
    return InvalidArgumentError("scenario: unknown fsync '" + config.fsync +
                                "' (expected none|batch|always)");
  }
  if (config.retain_epochs < 0) {
    return InvalidArgumentError("scenario: retain_epochs must be >= 0");
  }
  if (config.workload == ScenarioWorkload::kServe &&
      config.maintain_policy != ScenarioMaintainPolicy::kAuto) {
    // Serve workers never seal or refine — without the background
    // scheduler nothing would, and lookups would serve epoch 0 forever.
    return InvalidArgumentError(
        "scenario: workload = serve requires maintain_policy = auto "
        "(the background scheduler owns maintenance; workers only "
        "look up and ingest)");
  }
  if (config.serve_readers < 1) {
    return InvalidArgumentError("scenario: serve_readers must be >= 1");
  }
  if (config.serve_lookups < 1) {
    return InvalidArgumentError("scenario: serve_lookups must be >= 1");
  }
  if (config.serve_batch < 1) {
    return InvalidArgumentError("scenario: serve_batch must be >= 1");
  }
  if (config.serve_read_pct < 1 || config.serve_read_pct > 100) {
    return InvalidArgumentError(
        "scenario: serve_read_pct must be in [1, 100]");
  }
  if (config.serve_zipf < 0.0) {
    return InvalidArgumentError("scenario: serve_zipf must be >= 0");
  }
  FAIRIDX_RETURN_IF_ERROR(ValidateDriftKind("drift", config.drift));
  if (config.drift != "none" && !serving_workload) {
    // The drift generator permutes the ingest tail; a pipeline sweep has
    // no tail, so accepting the key would hide the typo.
    return InvalidArgumentError(
        "scenario: drift requires workload = stream, serve or "
        "multi_tenant");
  }
  if (config.drift_hot_pct < 1 || config.drift_hot_pct > 100) {
    return InvalidArgumentError(
        "scenario: drift_hot_pct must be in [1, 100]");
  }
  if (config.drift_window_pct < 0 || config.drift_window_pct > 100) {
    return InvalidArgumentError(
        "scenario: drift_window_pct must be in [0, 100]");
  }
  if (config.workload == ScenarioWorkload::kMultiTenant) {
    if (config.tenants.empty()) {
      return InvalidArgumentError(
          "scenario: workload = multi_tenant needs at least one "
          "tenant.<name>.* section");
    }
    if (config.maintain_policy != ScenarioMaintainPolicy::kAuto) {
      // Tenant workers only look up and ingest; the shared registry
      // scheduler owns every tenant's seal/refine cadence.
      return InvalidArgumentError(
          "scenario: workload = multi_tenant requires maintain_policy = "
          "auto (the shared registry scheduler owns maintenance)");
    }
  } else if (!config.tenants.empty()) {
    // tenant.* sections are meaningless outside multi_tenant; silently
    // ignoring them would violate the engine's typo-proof stance.
    return InvalidArgumentError(
        "scenario: tenant.<name>.* keys require workload = multi_tenant");
  }
  for (const ScenarioTenantConfig& tenant : config.tenants) {
    const std::string who = "scenario: tenant." + tenant.name + ".";
    if (tenant.height && *tenant.height < 0) {
      return InvalidArgumentError(who + "height must be >= 0");
    }
    if (tenant.batch && *tenant.batch < 1) {
      return InvalidArgumentError(who + "batch must be >= 1");
    }
    if (tenant.shards && *tenant.shards < 1) {
      return InvalidArgumentError(who + "shards must be >= 1");
    }
    if (tenant.warmup_pct &&
        (*tenant.warmup_pct < 1 || *tenant.warmup_pct > 99)) {
      return InvalidArgumentError(who + "warmup_pct must be in [1, 99]");
    }
    if (tenant.seal_records && *tenant.seal_records < 0) {
      return InvalidArgumentError(who + "seal_records must be >= 0");
    }
    if (tenant.seal_interval && *tenant.seal_interval < 0.0) {
      return InvalidArgumentError(who + "seal_interval must be >= 0");
    }
    if (tenant.retain_epochs && *tenant.retain_epochs < 0) {
      return InvalidArgumentError(who + "retain_epochs must be >= 0");
    }
    // lookups = 0 is the pure-ingest (noisy neighbor) tenant, so unlike
    // serve_lookups the per-tenant floor is 0, not 1.
    if (tenant.lookups && *tenant.lookups < 0) {
      return InvalidArgumentError(who + "lookups must be >= 0");
    }
    if (tenant.read_pct &&
        (*tenant.read_pct < 1 || *tenant.read_pct > 100)) {
      return InvalidArgumentError(who + "read_pct must be in [1, 100]");
    }
    if (tenant.zipf && *tenant.zipf < 0.0) {
      return InvalidArgumentError(who + "zipf must be >= 0");
    }
    if (tenant.drift) {
      FAIRIDX_RETURN_IF_ERROR(
          ValidateDriftKind("tenant." + tenant.name + ".drift",
                            *tenant.drift));
    }
    if (tenant.fsync && !ParseWalFsync(*tenant.fsync).ok()) {
      return InvalidArgumentError(who + "fsync must be none|batch|always");
    }
    if (tenant.full_snapshot_interval &&
        *tenant.full_snapshot_interval < 1) {
      return InvalidArgumentError(who +
                                  "full_snapshot_interval must be >= 1");
    }
  }
  return Status::Ok();
}

}  // namespace

std::vector<std::string> ScenarioKeyNames() {
  return std::vector<std::string>(std::begin(kScenarioKeys),
                                  std::end(kScenarioKeys));
}

std::vector<std::string> TenantScenarioKeyNames() {
  std::vector<std::string> keys;
  for (const char* sub : kTenantKeys) {
    keys.push_back(std::string("tenant.<name>.") + sub);
  }
  return keys;
}

std::vector<size_t> ScenarioDriftTailOrder(const std::string& drift,
                                           int hot_pct, int window_pct,
                                           const Grid& grid,
                                           const std::vector<int>& cell_ids,
                                           size_t warmup) {
  std::vector<size_t> order;
  if (warmup >= cell_ids.size()) return order;
  order.reserve(cell_ids.size() - warmup);
  for (size_t i = warmup; i < cell_ids.size(); ++i) order.push_back(i);
  const int cols = grid.cols();
  if (drift == "hotspot") {
    // The hot zone sweeps west -> east: arrivals are grouped into
    // column bands (each band drift_hot_pct percent of the sweep) and
    // emitted band by band. Stable, so within a band the original
    // arrival order is kept.
    const int bands = std::max(1, 100 / std::max(1, hot_pct));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const int band_a = grid.ColOfCell(cell_ids[a]) * bands / cols;
      const int band_b = grid.ColOfCell(cell_ids[b]) * bands / cols;
      return band_a < band_b;
    });
  } else if (drift == "flash_crowd") {
    // The centered hot column band's records arrive as one contiguous
    // burst landing window_pct percent of the way into the tail;
    // everything else keeps its arrival order around the burst.
    const int hot_cols = std::max(1, cols * hot_pct / 100);
    const int hot_begin = (cols - hot_cols) / 2;
    std::vector<size_t> hot;
    std::vector<size_t> cold;
    for (size_t i : order) {
      const int col = grid.ColOfCell(cell_ids[i]);
      (col >= hot_begin && col < hot_begin + hot_cols ? hot : cold)
          .push_back(i);
    }
    const size_t burst_at =
        cold.size() * static_cast<size_t>(window_pct) / 100;
    order.clear();
    order.insert(order.end(), cold.begin(), cold.begin() + burst_at);
    order.insert(order.end(), hot.begin(), hot.end());
    order.insert(order.end(), cold.begin() + burst_at, cold.end());
  }
  // "none" (and anything else, which validation rejects upstream) keeps
  // the identity order.
  return order;
}

Result<ScenarioConfig> ParseScenarioText(const std::string& text,
                                         const std::string& include_dir) {
  ScenarioConfig config;
  FAIRIDX_RETURN_IF_ERROR(ParseInto(text, include_dir, 0, &config));
  FAIRIDX_RETURN_IF_ERROR(ValidateScenario(config));
  return config;
}

Result<ScenarioConfig> LoadScenarioFile(const std::string& path) {
  ScenarioConfig config;
  FAIRIDX_RETURN_IF_ERROR(IncludeFile(path, 0, &config));
  FAIRIDX_RETURN_IF_ERROR(ValidateScenario(config));
  if (config.name.empty()) config.name = path;
  return config;
}

std::vector<ScenarioRun> ExpandScenario(const ScenarioConfig& config) {
  std::vector<ScenarioRun> runs;
  runs.reserve(config.heights.size() * config.algorithms.size() *
               config.seeds.size());
  for (int height : config.heights) {
    for (PartitionAlgorithm algorithm : config.algorithms) {
      for (uint64_t seed : config.seeds) {
        runs.push_back(ScenarioRun{algorithm, height, seed});
      }
    }
  }
  return runs;
}

Result<Dataset> LoadScenarioDataset(const ScenarioConfig& config) {
  if (!config.csv.empty()) {
    return LoadEdgapCsvFile(config.csv, CsvDatasetOptions{});
  }
  if (config.city == "la" || config.city == "losangeles") {
    return GenerateEdgapCity(LosAngelesConfig());
  }
  if (config.city == "houston") {
    return GenerateEdgapCity(HoustonConfig());
  }
  return InvalidArgumentError("unknown city '" + config.city +
                              "' (expected la|houston)");
}

namespace {

Result<ScenarioRow> RunOnePipelinePoint(const ScenarioConfig& config,
                                        const Dataset& dataset,
                                        const Classifier& prototype,
                                        const ScenarioRun& run) {
  PipelineOptions options;
  options.algorithm = run.algorithm;
  options.height = run.height;
  options.task = config.task;
  options.num_threads = config.threads;
  options.test_fraction = config.test_fraction;
  options.split_seed = run.seed;
  options.min_region_population = config.min_region_population;
  FAIRIDX_ASSIGN_OR_RETURN(PipelineRunResult result,
                           RunPipeline(dataset, prototype, options));
  ScenarioRow row;
  row.run = run;
  row.regions = result.final_model.eval.num_neighborhoods;
  row.train_ence = result.final_model.eval.train_ence;
  row.test_ence = result.final_model.eval.test_ence;
  row.train_accuracy = result.final_model.eval.train_accuracy;
  row.test_accuracy = result.final_model.eval.test_accuracy;
  row.test_miscalibration = result.final_model.eval.test_miscalibration;
  row.partition_seconds = result.partition_seconds;
  row.model_fits = result.partition_stage_fits;
  return row;
}

// The per-tenant serving preamble: one model fit scores every record,
// and the record stream splits into a warmup prefix (builds the initial
// partition) and the ingest tail.
struct StreamFeed {
  AggregateBatch all;
  /// Records in the warmup prefix ([0, warmup) of `all`).
  size_t warmup = 0;
  /// Total records (== all.cell_ids.size()).
  size_t total = 0;
};

Result<StreamFeed> MakeStreamFeed(const ScenarioConfig& config,
                                  const Dataset& dataset,
                                  const Classifier& prototype,
                                  const ScenarioRun& run) {
  if (config.task < 0 || config.task >= dataset.num_tasks()) {
    return InvalidArgumentError("scenario: task out of range for dataset");
  }
  Rng rng(run.seed);
  FAIRIDX_ASSIGN_OR_RETURN(
      TrainTestSplit split,
      MakeStratifiedSplit(dataset.labels(config.task),
                          config.test_fraction, rng));
  FAIRIDX_ASSIGN_OR_RETURN(
      TrainedEvaluation trained,
      TrainOnBaseGrid(dataset, split, prototype, EvalOptions{}));
  StreamFeed feed;
  feed.all.cell_ids = dataset.base_cells();
  feed.all.labels = dataset.labels(config.task);
  feed.all.scores = trained.scores;
  feed.total = dataset.num_records();
  feed.warmup = std::max<size_t>(
      1, feed.total * static_cast<size_t>(config.stream_warmup_pct) / 100);
  if (config.drift != "none" && feed.warmup < feed.total) {
    // Drift generator: permute the ingest tail (the warmup prefix is
    // untouched). A pure permutation keeps the record multiset — and
    // therefore every final sealed sum — identical to the undrifted
    // stream; only the arrival ORDER (and hence intermediate epochs and
    // refine decisions) changes.
    const std::vector<size_t> order = ScenarioDriftTailOrder(
        config.drift, config.drift_hot_pct, config.drift_window_pct,
        dataset.grid(), feed.all.cell_ids, feed.warmup);
    AggregateBatch tail;
    tail.cell_ids.reserve(order.size());
    for (size_t i : order) {
      tail.Append(feed.all.cell_ids[i], feed.all.labels[i],
                  feed.all.scores[i]);
    }
    std::copy(tail.cell_ids.begin(), tail.cell_ids.end(),
              feed.all.cell_ids.begin() + feed.warmup);
    std::copy(tail.labels.begin(), tail.labels.end(),
              feed.all.labels.begin() + feed.warmup);
    std::copy(tail.scores.begin(), tail.scores.end(),
              feed.all.scores.begin() + feed.warmup);
  }
  return feed;
}

// The FairIndexService configuration every serving tenant uses: the
// sweep point's build/store/refine knobs, the durability cadence, and
// the maintenance policy the registry's shared thread runs under
// maintain_policy = auto. The registry owns the WAL directory and the
// scheduler thread, so neither is set here.
Result<FairIndexServiceOptions> MakeServiceOptions(
    const ScenarioConfig& config, const ScenarioRun& run) {
  FairIndexServiceOptions options;
  options.algorithm = PartitionAlgorithmName(run.algorithm);
  options.build.height = run.height;
  options.build.task = config.task;
  options.build.num_threads = config.threads;
  options.store.num_shards = config.stream_shards;
  options.store.num_threads = config.threads;
  options.refine.drift_bound = config.drift_bound;
  options.durability.checkpoint_interval = config.checkpoint_interval;
  options.durability.full_snapshot_interval = config.full_snapshot_interval;
  FAIRIDX_ASSIGN_OR_RETURN(options.durability.fsync,
                           ParseWalFsync(config.fsync));
  // stream_seal_records = 0 means "every batch" in caller mode; for the
  // scheduler that is a 1-record cadence — unless seal_interval was
  // given, in which case 0 disables the record cadence so the wall clock
  // alone governs (interval-only policies stay expressible).
  options.maintain.seal_records =
      config.stream_seal_records > 0
          ? config.stream_seal_records
          : (config.seal_interval > 0.0 ? 0 : 1);
  options.maintain.seal_interval_seconds = config.seal_interval;
  options.maintain.drift_bound = config.drift_bound;
  options.maintain.poll_interval_seconds = 0.002;
  options.maintain.retain_epochs = config.retain_epochs;
  return options;
}

// Percentile of an ASCENDING sample vector with linear interpolation
// between the two nearest ranks (the methodology docs/benchmarking.md
// describes; empty input yields 0).
double PercentileUs(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(sorted.size() - 1, lo + 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo);
}

// Pre-generates `count` lookup points with Zipf-skewed cell popularity:
// hotness ranks are a seed-deterministic shuffle of the cells, rank r is
// drawn with probability proportional to 1/(r+1)^s through an
// inverse-CDF table, and each point lands uniformly inside its cell.
// s = 0 degenerates to uniform cells. Points are generated BEFORE the
// timed loop so the measurement covers the lookup, not the generator.
std::vector<Point> MakeZipfPoints(const Grid& grid, double s,
                                  long long count, Rng& rng) {
  const int cells = grid.num_cells();
  std::vector<double> cdf(static_cast<size_t>(cells));
  double total = 0.0;
  for (int r = 0; r < cells; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[static_cast<size_t>(r)] = total;
  }
  std::vector<int> rank_to_cell(static_cast<size_t>(cells));
  std::iota(rank_to_cell.begin(), rank_to_cell.end(), 0);
  rng.Shuffle(rank_to_cell);
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(count));
  for (long long i = 0; i < count; ++i) {
    const double u = rng.NextDouble() * total;
    const size_t rank = std::min(
        static_cast<size_t>(cells - 1),
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin()));
    const int cell = rank_to_cell[rank];
    const BoundingBox box =
        grid.CellBounds(grid.RowOfCell(cell), grid.ColOfCell(cell));
    points.push_back(Point{rng.Uniform(box.min_x, box.max_x),
                           rng.Uniform(box.min_y, box.max_y)});
  }
  return points;
}

// The per-tenant effective view: the top-level config with this
// tenant's overrides applied. Every key a tenant does not name inherits
// the scenario-wide value, so the fleet defaults are stated once.
ScenarioConfig TenantEffectiveConfig(const ScenarioConfig& base,
                                     const ScenarioTenantConfig& tenant) {
  ScenarioConfig cfg = base;
  if (tenant.city) {
    cfg.city = *tenant.city;
    cfg.csv.clear();
  }
  if (tenant.batch) cfg.stream_batch = *tenant.batch;
  if (tenant.shards) cfg.stream_shards = *tenant.shards;
  if (tenant.warmup_pct) cfg.stream_warmup_pct = *tenant.warmup_pct;
  if (tenant.seal_records) cfg.stream_seal_records = *tenant.seal_records;
  if (tenant.seal_interval) cfg.seal_interval = *tenant.seal_interval;
  if (tenant.drift_bound) cfg.drift_bound = *tenant.drift_bound;
  if (tenant.retain_epochs) cfg.retain_epochs = *tenant.retain_epochs;
  if (tenant.lookups) cfg.serve_lookups = *tenant.lookups;
  if (tenant.read_pct) cfg.serve_read_pct = *tenant.read_pct;
  if (tenant.zipf) cfg.serve_zipf = *tenant.zipf;
  if (tenant.drift) cfg.drift = *tenant.drift;
  if (tenant.fsync) cfg.fsync = *tenant.fsync;
  if (tenant.checkpoint_interval) {
    cfg.checkpoint_interval = *tenant.checkpoint_interval;
  }
  if (tenant.full_snapshot_interval) {
    cfg.full_snapshot_interval = *tenant.full_snapshot_interval;
  }
  return cfg;
}

ScenarioRun TenantEffectiveRun(const ScenarioRun& base,
                               const ScenarioTenantConfig& tenant) {
  ScenarioRun run = base;
  if (tenant.algorithm) {
    // Validated at parse time; value() cannot fail here.
    run.algorithm = ParsePartitionAlgorithm(*tenant.algorithm).value();
  }
  if (tenant.height) run.height = *tenant.height;
  if (tenant.seed) run.seed = *tenant.seed;
  return run;
}

// One tenant of a serving sweep point: its effective config and run,
// the dataset it streams, and its scored record feed.
struct PointTenant {
  std::string name;
  ScenarioConfig eff;
  ScenarioRun run;
  const Dataset* data = nullptr;
  StreamFeed feed;
};

// One worker thread's pre-built traffic and its measurements.
struct Worker {
  /// Index of the worker's tenant in the point's tenant list.
  size_t tenant = 0;
  /// Pre-generated lookup points (the tenant's serve_lookups).
  std::vector<Point> points;
  /// This worker's round-robin share of the tenant's ingest tail.
  std::vector<AggregateBatch> write_batches;
  /// The read-pct coin.
  Rng coin{0};
  /// Steady-state LookupMany call latencies (the first 10% of calls are
  /// cache warmup and excluded).
  std::vector<double> latencies_us;
  long long lookups = 0;
  long long tail_records = 0;
  double seconds = 0.0;
  Status status = Status::Ok();
};

// The closed loop one worker runs against its tenant: batched LookupMany
// calls mixed with ingest on the read-pct coin, leftover writes drained
// at the end, so record counts never depend on the coin. Closed loop:
// each worker keeps exactly one operation in flight, so a slow lookup
// delays only that worker's next send — the latency histogram measures
// service time without the coordinated-omission distortion an open-loop
// generator would need correcting for (see docs/benchmarking.md). Under
// maintain_policy = caller the worker is its tenant's only writer and
// seals (or refines) after an ingest once stream_seal_records are
// pending.
Status RunWorker(const ScenarioConfig& eff, const std::string& tenant,
                 TenantRegistry& registry, Worker& me) {
  FAIRIDX_ASSIGN_OR_RETURN(FairIndexService* service,
                           registry.tenant(tenant));
  const auto ingest = [&](AggregateBatch batch) -> Status {
    FAIRIDX_RETURN_IF_ERROR(
        registry.Ingest(tenant, std::move(batch)).status());
    if (eff.maintain_policy == ScenarioMaintainPolicy::kAuto ||
        service->store().pending_records() < eff.stream_seal_records) {
      return Status::Ok();
    }
    if (eff.drift_bound >= 0.0) {
      FAIRIDX_RETURN_IF_ERROR(service->MaybeRefine().status());
    } else {
      FAIRIDX_RETURN_IF_ERROR(service->Seal().status());
    }
    if (eff.retain_epochs > 0) service->ApplyRetention(eff.retain_epochs);
    return Status::Ok();
  };
  const size_t batch = static_cast<size_t>(eff.serve_batch);
  const size_t calls = (me.points.size() + batch - 1) / batch;
  const size_t warmup_calls = calls / 10;
  std::vector<PointLookupResult> out(batch);
  size_t write_next = 0;
  size_t call = 0;
  for (size_t off = 0; off < me.points.size();) {
    if (write_next < me.write_batches.size() &&
        static_cast<int>(me.coin.NextBounded(100)) >= eff.serve_read_pct) {
      FAIRIDX_RETURN_IF_ERROR(
          ingest(std::move(me.write_batches[write_next++])));
      continue;
    }
    const size_t len = std::min(batch, me.points.size() - off);
    const auto t0 = std::chrono::steady_clock::now();
    service->LookupMany(Span<Point>(me.points.data() + off, len),
                        out.data());
    const auto t1 = std::chrono::steady_clock::now();
    if (call >= warmup_calls) {
      me.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    ++call;
    me.lookups += static_cast<long long>(len);
    off += len;
  }
  // Drain the leftover tail share (the whole share for a pure ingester).
  for (; write_next < me.write_batches.size(); ++write_next) {
    FAIRIDX_RETURN_IF_ERROR(ingest(std::move(me.write_batches[write_next])));
  }
  return Status::Ok();
}

// One serving sweep point, for every serving workload: the point's
// tenants (its tenant.<name>.* sections, or one implicit tenant with the
// top-level config) are hosted in ONE TenantRegistry, and worker threads
// run the closed loop above against them — serve_readers workers for
// serve, one per tenant otherwise. With a wal_dir the point recovers-or-
// creates per tenant, resuming each recovered tenant at the first record
// it never accepted; a multi_tenant tenant whose recovery fails comes
// back as a "degraded" row while the others keep serving.
Result<std::vector<ScenarioServingRow>> RunOneServingPoint(
    const ScenarioConfig& config, const Dataset& dataset,
    const Classifier& prototype, const ScenarioRun& run) {
  const std::string point =
      std::string(PartitionAlgorithmName(run.algorithm)) + "-h" +
      std::to_string(run.height) + "-s" + std::to_string(run.seed);
  // Without tenant sections the point is one tenant named after the point
  // and rooted at wal_dir itself (<wal_dir>/<point>/); sections get one
  // root per point (<wal_dir>/<point>/<tenant>/).
  std::vector<ScenarioTenantConfig> sections = config.tenants;
  TenantRegistryOptions registry_options;
  registry_options.wal_dir = config.wal_dir;
  if (sections.empty()) {
    sections.emplace_back();
    sections.back().name = point;
  } else if (!config.wal_dir.empty()) {
    registry_options.wal_dir += "/" + point;
  }

  const size_t n = sections.size();
  std::vector<PointTenant> tenants(n);
  std::vector<Dataset> owned;
  owned.reserve(n);  // Pointers into `owned` must survive push_back.
  std::vector<TenantSpec> specs;
  specs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PointTenant& t = tenants[i];
    t.name = sections[i].name;
    t.eff = TenantEffectiveConfig(config, sections[i]);
    // A stream worker never looks anything up: it is a pure ingester.
    if (config.workload == ScenarioWorkload::kStream) t.eff.serve_lookups = 0;
    t.run = TenantEffectiveRun(run, sections[i]);
    t.data = &dataset;
    if (sections[i].city) {
      // A city override gives the tenant its own dataset AND grid shape.
      FAIRIDX_ASSIGN_OR_RETURN(Dataset tenant_dataset,
                               LoadScenarioDataset(t.eff));
      owned.push_back(std::move(tenant_dataset));
      t.data = &owned.back();
    }
    FAIRIDX_ASSIGN_OR_RETURN(t.feed,
                             MakeStreamFeed(t.eff, *t.data, prototype, t.run));
    FAIRIDX_ASSIGN_OR_RETURN(FairIndexServiceOptions options,
                             MakeServiceOptions(t.eff, t.run));
    specs.push_back(TenantSpec{t.name, t.data->grid(),
                               t.feed.all.Slice(0, t.feed.warmup),
                               std::move(options)});
  }
  // Recover-or-create when durable (a rerun over the same root resumes
  // the previous run's tenants), plain create otherwise.
  FAIRIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<TenantRegistry> registry,
      registry_options.wal_dir.empty()
          ? TenantRegistry::Create(std::move(specs), registry_options)
          : TenantRegistry::Recover(std::move(specs), registry_options));

  // Pre-build every worker's traffic before any clock starts. Worker w
  // of a tenant draws its points from Rng(seed).Fork(2w + 1) and its coin
  // from Fork(2w + 2). A recovered tenant resumes at the first record it
  // never accepted (records stream in feed order and every accepted
  // record was logged exactly once, so its store count IS the resume
  // position); the rest of the tail is dealt round-robin by batch, so
  // every record is owned by exactly one worker.
  const int per_tenant = config.workload == ScenarioWorkload::kServe
                             ? config.serve_readers
                             : 1;
  std::vector<Worker> workers;
  for (size_t i = 0; i < n; ++i) {
    const PointTenant& t = tenants[i];
    const auto service = registry->tenant(t.name);
    if (!service.ok()) continue;  // Degraded: no traffic, a status row.
    const size_t first = workers.size();
    Rng base(t.run.seed);
    for (int w = 0; w < per_tenant; ++w) {
      Worker worker;
      worker.tenant = i;
      Rng point_rng = base.Fork(static_cast<uint64_t>(2 * w + 1));
      worker.points = MakeZipfPoints(t.data->grid(), t.eff.serve_zipf,
                                     t.eff.serve_lookups, point_rng);
      worker.coin = base.Fork(static_cast<uint64_t>(2 * w + 2));
      workers.push_back(std::move(worker));
    }
    const long long accepted = (*service)->store().num_records();
    size_t next = std::min(
        t.feed.total,
        std::max(t.feed.warmup, static_cast<size_t>(std::max(0LL, accepted))));
    for (size_t k = 0; next < t.feed.total; ++k) {
      const size_t end = std::min(
          t.feed.total, next + static_cast<size_t>(t.eff.stream_batch));
      Worker& owner = workers[first + k % static_cast<size_t>(per_tenant)];
      owner.write_batches.push_back(t.feed.all.Slice(next, end));
      owner.tail_records += static_cast<long long>(end - next);
      next = end;
    }
  }

  const bool auto_maintain =
      config.maintain_policy == ScenarioMaintainPolicy::kAuto;
  if (auto_maintain) FAIRIDX_RETURN_IF_ERROR(registry->StartMaintenance());
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (Worker& worker : workers) {
    threads.emplace_back([&, me = &worker] {
      const PointTenant& t = tenants[me->tenant];
      const auto t_begin = std::chrono::steady_clock::now();
      me->status = RunWorker(t.eff, t.name, *registry, *me);
      me->seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t_begin)
                        .count();
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Quiesce the shared scheduler (joins any in-flight pass) before the
  // final audit seals.
  if (auto_maintain) registry->StopMaintenance();

  const std::vector<TenantStatus> statuses = registry->statuses();
  std::vector<ScenarioServingRow> rows(n);
  for (size_t i = 0; i < n; ++i) {
    ScenarioServingRow& row = rows[i];
    row.run = tenants[i].run;
    row.tenant = tenants[i].name;
    if (statuses[i].state == TenantState::kDegraded) {
      row.state = "degraded";
      continue;
    }
    row.state = statuses[i].recovered ? "recovered" : "serving";
    std::vector<double> latencies;
    long long tail_records = 0;
    for (const Worker& worker : workers) {
      if (worker.tenant != i) continue;
      FAIRIDX_RETURN_IF_ERROR(worker.status);
      latencies.insert(latencies.end(), worker.latencies_us.begin(),
                       worker.latencies_us.end());
      row.lookups += worker.lookups;
      tail_records += worker.tail_records;
      row.seconds = std::max(row.seconds, worker.seconds);
    }
    std::sort(latencies.begin(), latencies.end());
    FairIndexService* service = registry->tenant(row.tenant).value();
    FAIRIDX_RETURN_IF_ERROR(service->Seal().status());
    const std::vector<RegionAggregate> final_regions =
        service->QueryRegions();
    row.regions = static_cast<int>(final_regions.size());
    row.records = service->store().num_records();
    row.epochs = service->store().epoch();
    row.resplits = service->total_resplits();
    row.published_patched = service->publications_patched();
    row.published_fallback = service->publications_fallback();
    if (row.seconds > 0.0) {
      row.read_qps = static_cast<double>(row.lookups) / row.seconds;
      row.ingest_rps = static_cast<double>(tail_records) / row.seconds;
    }
    row.p50_us = PercentileUs(latencies, 50.0);
    row.p95_us = PercentileUs(latencies, 95.0);
    row.p99_us = PercentileUs(latencies, 99.0);
    row.publish_stall_us = service->max_publish_stall_us();
    row.checkpoint_stall_us = service->max_checkpoint_stall_us();
    row.final_ence = RegionEnce(final_regions).ence;
  }
  return rows;
}

// Executes `fn` over every sweep point on the shared ThreadPool (at most
// config.threads at once), preserving sweep order. Each point is
// independent and internally deterministic, so the row vector is
// bit-identical at any thread count; on failures the error of the
// EARLIEST failing point (in sweep order) is returned, also regardless
// of thread count.
template <typename Row, typename Fn>
Result<std::vector<Row>> RunSweepPoints(const ScenarioConfig& config,
                                        const std::vector<ScenarioRun>& runs,
                                        Fn fn) {
  std::vector<Result<Row>> results(
      runs.size(), Result<Row>(InternalError("sweep point not executed")));
  ThreadPool::Shared().ParallelFor(
      runs.size(), config.threads,
      [&](size_t i) { results[i] = fn(runs[i]); });
  std::vector<Row> rows;
  rows.reserve(runs.size());
  for (Result<Row>& result : results) {
    if (!result.ok()) return result.status();
    rows.push_back(std::move(result).value());
  }
  return rows;
}

}  // namespace

Result<ScenarioReport> RunScenario(const ScenarioConfig& config,
                                   const Dataset& dataset) {
  FAIRIDX_RETURN_IF_ERROR(ValidateScenario(config));
  const std::unique_ptr<Classifier> prototype =
      MakeClassifier(config.classifier);
  const std::vector<ScenarioRun> runs = ExpandScenario(config);
  ScenarioReport report;
  report.workload = config.workload;
  if (config.workload == ScenarioWorkload::kPipeline) {
    FAIRIDX_ASSIGN_OR_RETURN(
        report.rows,
        (RunSweepPoints<ScenarioRow>(
            config, runs, [&](const ScenarioRun& run) {
              return RunOnePipelinePoint(config, dataset, *prototype, run);
            })));
    return report;
  }
  // Each serving point yields one row PER TENANT; flatten in sweep order
  // so tenants stay grouped by point, section-ordered within.
  FAIRIDX_ASSIGN_OR_RETURN(
      std::vector<std::vector<ScenarioServingRow>> groups,
      (RunSweepPoints<std::vector<ScenarioServingRow>>(
          config, runs, [&](const ScenarioRun& run) {
            return RunOneServingPoint(config, dataset, *prototype, run);
          })));
  for (std::vector<ScenarioServingRow>& group : groups) {
    for (ScenarioServingRow& row : group) {
      report.serving_rows.push_back(std::move(row));
    }
  }
  return report;
}

Result<ScenarioReport> RunScenario(const ScenarioConfig& config) {
  FAIRIDX_ASSIGN_OR_RETURN(Dataset dataset, LoadScenarioDataset(config));
  return RunScenario(config, dataset);
}

}  // namespace fairidx
