#include "core/scenario.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

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

constexpr double kInf = std::numeric_limits<double>::infinity();

// Upper bounds of the integer keys, each with its reason.
// 1024 threads, shards or readers is past any host this runs on.
constexpr double kMaxThreads = 1024;
// A batch of 2^20 records or lookup points is seconds of work per call.
constexpr double kMaxBatch = 1 << 20;
// The lookup points a serving point pre-generates before its clock starts
// (one worker's, and all its workers' together): 2^26 Points is 1 GiB.
// Bounded so an oversized count fails `check` with one line instead of
// aborting the run on bad_alloc.
constexpr long long kMaxLookupPoints = 1LL << 26;
// A label-column index: the loaded dataset's own count is checked when
// the run starts, this bound only lets `check` catch a typo.
constexpr double kMaxTask = 1023;
// A record, epoch or checkpoint cadence only needs a typo guard: past a
// run's length every larger value behaves the same, and 2^30 is past any.
constexpr double kMaxCadence = 1 << 30;

// The synthetic cities by name: the `city` key's choices, and the
// generator LoadScenarioDataset runs for each, by choice index.
constexpr char kCityChoices[] = "la|losangeles|houston";
CityConfig (*const kCityConfigs[])() = {LosAngelesConfig, LosAngelesConfig,
                                         HoustonConfig};

// The index of `value` in a '|'-separated choice list, or -1.
int ChoiceIndex(const char* choices, const std::string& value) {
  const std::vector<std::string> names = Split(choices, '|');
  const auto it = std::find(names.begin(), names.end(), value);
  return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

std::string ChoiceError(const std::string& key, const std::string& value,
                        const char* choices) {
  return "unknown " + key + " '" + value + "' (expected " + choices + ")";
}

std::string FormatNumber(double value) { return StrFormat("%.15g", value); }

// The one range error: "scenario: <key> = <value> is out of range
// [lo, hi]" (a real key without a ceiling reads "[lo, inf)").
Status OutOfRange(const std::string& key, const std::string& value,
                  double lo, double hi) {
  return InvalidArgumentError(
      "scenario: " + key + " = " + value + " is out of range [" +
      FormatNumber(lo) + ", " +
      (hi == kInf ? std::string("inf)") : FormatNumber(hi) + "]"));
}

// The ScenarioConfig field a key writes. Its type picks the value parser
// (Set) and the check ValidateScenario applies (CheckKey).
using KeyMember = std::variant<
    std::string ScenarioConfig::*, int ScenarioConfig::*,
    long long ScenarioConfig::*, double ScenarioConfig::*,
    std::vector<int> ScenarioConfig::*,
    std::vector<uint64_t> ScenarioConfig::*,
    std::vector<PartitionAlgorithm> ScenarioConfig::*,
    ClassifierKind ScenarioConfig::*, ScenarioWorkload ScenarioConfig::*,
    ScenarioMaintainPolicy ScenarioConfig::*>;

// One scenario key: what the parser, the validator, tenant sections,
// ScenarioKeyNames() and the CLI flag table know about it.
struct KeySpec {
  constexpr KeySpec(const char* key_name, KeyMember key_member,
                    double key_lo = -kInf, double key_hi = kInf)
      : name(key_name), member(key_member), lo(key_lo), hi(key_hi) {}

  const char* name;
  KeyMember member;
  // Closed bounds on a number (on each element of a list).
  double lo;
  double hi;
  const char* alias = nullptr;
  // A closed string enum, '|'-separated; an enum member lists its
  // enumerators in declaration order.
  const char* choices = nullptr;
  // The tenant.<name>.<sub> spelling when a tenant may override the key,
  // and the tenant's floor when it differs from `lo`.
  const char* tenant = nullptr;
  std::optional<double> tenant_lo;
  // A path, resolved against the including file's directory.
  bool path = false;

  constexpr KeySpec& Alias(const char* a) { alias = a; return *this; }
  constexpr KeySpec& OneOf(const char* c) { choices = c; return *this; }
  constexpr KeySpec& Path() { path = true; return *this; }
  constexpr KeySpec& Tenant(const char* sub,
                            std::optional<double> floor = {}) {
    tenant = sub;
    tenant_lo = floor;
    return *this;
  }
};

// The key table, in ScenarioKeyNames() (and reference doc) order.
using C = ScenarioConfig;
constexpr KeySpec kKeys[] = {
    KeySpec("name", &C::name),
    KeySpec("city", &C::city).OneOf(kCityChoices).Tenant("city"),
    KeySpec("csv", &C::csv).Path(),
    KeySpec("classifier", &C::classifier),
    KeySpec("algorithms", &C::algorithms)
        .Alias("algorithm")
        .Tenant("algorithm"),
    // 2^30 regions is the most any partitioner builds.
    KeySpec("heights", &C::heights, 0, 30).Alias("height").Tenant("height"),
    KeySpec("seeds", &C::seeds).Alias("seed").Tenant("seed"),
    KeySpec("task", &C::task, 0, kMaxTask),
    KeySpec("threads", &C::threads, 1, kMaxThreads),
    // (0, 1) is an open interval: ValidateScenario checks it.
    KeySpec("test_fraction", &C::test_fraction),
    KeySpec("min_region_population", &C::min_region_population, 0),
    KeySpec("workload", &C::workload)
        .OneOf("pipeline|stream|serve|multi_tenant"),
    KeySpec("stream_batch", &C::stream_batch, 1, kMaxBatch).Tenant("batch"),
    KeySpec("stream_shards", &C::stream_shards, 1, kMaxThreads)
        .Tenant("shards"),
    KeySpec("stream_warmup_pct", &C::stream_warmup_pct, 1, 99)
        .Tenant("warmup_pct"),
    KeySpec("stream_seal_records", &C::stream_seal_records, 0, kMaxCadence)
        .Tenant("seal_records"),
    KeySpec("maintain_policy", &C::maintain_policy).OneOf("caller|auto"),
    KeySpec("seal_interval", &C::seal_interval, 0).Tenant("seal_interval"),
    KeySpec("drift_bound", &C::drift_bound).Tenant("drift_bound"),
    KeySpec("wal_dir", &C::wal_dir),
    KeySpec("checkpoint_interval", &C::checkpoint_interval, 0, kMaxCadence)
        .Tenant("checkpoint_interval"),
    KeySpec("full_snapshot_interval", &C::full_snapshot_interval, 1,
            kMaxCadence)
        .Tenant("full_snapshot_interval"),
    KeySpec("fsync", &C::fsync).OneOf("none|batch|always").Tenant("fsync"),
    KeySpec("retain_epochs", &C::retain_epochs, 0, kMaxCadence)
        .Tenant("retain_epochs"),
    KeySpec("serve_readers", &C::serve_readers, 1, kMaxThreads),
    // lookups = 0 makes a tenant a pure ingester (the noisy neighbor).
    KeySpec("serve_lookups", &C::serve_lookups, 1, kMaxLookupPoints)
        .Tenant("lookups", 0),
    KeySpec("serve_batch", &C::serve_batch, 1, kMaxBatch),
    KeySpec("serve_read_pct", &C::serve_read_pct, 1, 100).Tenant("read_pct"),
    KeySpec("serve_zipf", &C::serve_zipf, 0).Tenant("zipf"),
    KeySpec("drift", &C::drift)
        .OneOf("none|hotspot|flash_crowd")
        .Tenant("drift"),
    KeySpec("drift_hot_pct", &C::drift_hot_pct, 1, 100),
    KeySpec("drift_window_pct", &C::drift_window_pct, 0, 100),
};

// True for a key whose value is an integer (each element, for heights).
constexpr bool IsInteger(const KeySpec& spec) {
  return std::visit(
      [](auto member) {
        using T = std::decay_t<decltype(std::declval<C&>().*member)>;
        return std::is_integral_v<T> || std::is_same_v<T, std::vector<int>>;
      },
      spec.member);
}

constexpr bool IntegerKeysAreBounded() {
  for (const KeySpec& spec : kKeys) {
    if (IsInteger(spec) && (spec.lo == -kInf || spec.hi == kInf)) {
      return false;
    }
  }
  return true;
}
static_assert(IntegerKeysAreBounded(), "every integer key states both bounds");

// The key named `key` (or aliased so), or, with `tenant`, the key whose
// tenant sub-key is `key`; nullptr when there is none.
const KeySpec* FindKey(const std::string& key, bool tenant = false) {
  for (const KeySpec& spec : kKeys) {
    const char* names[] = {tenant ? spec.tenant : spec.name,
                           tenant ? nullptr : spec.alias};
    for (const char* name : names) {
      if (name != nullptr && key == name) return &spec;
    }
  }
  return nullptr;
}

// ----- Value parsers ---------------------------------------------------

// Appends one item of a sweep-axis list. Heights accept inclusive
// "lo..hi" ranges, both ends bounded before the range expands.
Status AppendItem(const KeySpec& spec, const std::string& key,
                  const std::string& item, std::vector<int>* heights) {
  const size_t dots = item.find("..");
  FAIRIDX_ASSIGN_OR_RETURN(int lo, ParseInt(item.substr(0, dots)));
  int hi = lo;
  if (dots != std::string::npos) {
    FAIRIDX_ASSIGN_OR_RETURN(hi, ParseInt(item.substr(dots + 2)));
    if (lo > hi) {
      return InvalidArgumentError("empty height range '" + item + "'");
    }
  }
  for (int end : {lo, hi}) {
    if (end < spec.lo || end > spec.hi) {
      return OutOfRange(key, std::to_string(end), spec.lo, spec.hi);
    }
  }
  for (int h = lo; h <= hi; ++h) heights->push_back(h);
  return Status::Ok();
}

Status AppendItem(const KeySpec&, const std::string&, const std::string& item,
                  std::vector<uint64_t>* seeds) {
  FAIRIDX_ASSIGN_OR_RETURN(uint64_t seed, ParseSeed(item));
  seeds->push_back(seed);
  return Status::Ok();
}

Status AppendItem(const KeySpec&, const std::string&, const std::string& item,
                  std::vector<PartitionAlgorithm>* algorithms) {
  if (item == "all") {
    const std::vector<PartitionAlgorithm> all = AllPartitionAlgorithms();
    algorithms->insert(algorithms->end(), all.begin(), all.end());
    return Status::Ok();
  }
  FAIRIDX_ASSIGN_OR_RETURN(PartitionAlgorithm algorithm,
                           ParsePartitionAlgorithm(item));
  algorithms->push_back(algorithm);
  return Status::Ok();
}

// Parses `value` into the config member of `spec`, by the member's type;
// `key` is the name errors use.
Status Set(const KeySpec& spec, const std::string& key,
           const std::string& value, ScenarioConfig* config) {
  return std::visit(
      [&](auto member) -> Status {
        auto& out = config->*member;
        using T = std::decay_t<decltype(out)>;
        if constexpr (std::is_same_v<T, std::string>) {
          out = value;
        } else if constexpr (std::is_same_v<T, double>) {
          FAIRIDX_ASSIGN_OR_RETURN(out, ParseDouble(value));
        } else if constexpr (std::is_integral_v<T>) {
          FAIRIDX_ASSIGN_OR_RETURN(out, ParseInt(value));
        } else if constexpr (std::is_same_v<T, ClassifierKind>) {
          FAIRIDX_ASSIGN_OR_RETURN(out, ParseClassifierKind(value));
        } else if constexpr (std::is_enum_v<T>) {
          // The scenario's own enums: the value's index in the choices.
          const int index = ChoiceIndex(spec.choices, value);
          if (index < 0) {
            return InvalidArgumentError(ChoiceError(key, value, spec.choices));
          }
          out = static_cast<T>(index);
        } else {
          // A sweep axis: a comma list.
          T list;
          for (const std::string& raw : Split(value, ',')) {
            const std::string item = Trim(raw);
            if (item.empty()) {
              return InvalidArgumentError("empty element in list '" + value +
                                          "'");
            }
            FAIRIDX_RETURN_IF_ERROR(AppendItem(spec, key, item, &list));
          }
          out = std::move(list);
        }
        return Status::Ok();
      },
      spec.member);
}

// Checks the current value of `spec` against its bounds or choices,
// naming it `key`; `floor` replaces the lower bound.
Status CheckKey(const KeySpec& spec, const std::string& key,
                const ScenarioConfig& config, double floor) {
  const auto check = [&](double value, const std::string& text) {
    return value >= floor && value <= spec.hi
               ? Status::Ok()
               : OutOfRange(key, text, floor, spec.hi);
  };
  return std::visit(
      [&](auto member) -> Status {
        const auto& value = config.*member;
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_integral_v<T>) {
          return check(static_cast<double>(value), std::to_string(value));
        } else if constexpr (std::is_same_v<T, double>) {
          return check(value, FormatNumber(value));
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (spec.choices != nullptr && ChoiceIndex(spec.choices, value) < 0) {
            return InvalidArgumentError("scenario: " +
                                        ChoiceError(key, value, spec.choices));
          }
        } else if constexpr (!std::is_enum_v<T>) {
          // A sweep axis: never empty; heights bounded item by item.
          if (value.empty()) return InvalidArgumentError("scenario: no " + key);
          if constexpr (std::is_same_v<T, std::vector<int>>) {
            for (int item : value) {
              FAIRIDX_RETURN_IF_ERROR(check(item, std::to_string(item)));
            }
          }
        }
        return Status::Ok();
      },
      spec.member);
}

// One `tenant.<name>.<key> = value` line: the override is applied to a
// default config at once, so a malformed value fails on its own line,
// then appended to the named section (found or created in
// first-appearance order).
Status AddTenantOverride(const std::string& key, const std::string& value,
                         ScenarioConfig* config) {
  const std::string rest = key.substr(7);  // past "tenant."
  const size_t dot = rest.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= rest.size()) {
    return InvalidArgumentError(
        "tenant keys are spelled tenant.<name>.<key>, got '" + key + "'");
  }
  const ScenarioTenantConfig line{rest.substr(0, dot),
                                  {{rest.substr(dot + 1), value}}};
  FAIRIDX_RETURN_IF_ERROR(ValidateTenantName(line.name));
  FAIRIDX_RETURN_IF_ERROR(
      TenantEffectiveConfig(ScenarioConfig{}, ScenarioRun{}, line).status());
  std::vector<ScenarioTenantConfig>& tenants = config->tenants;
  const auto it = std::find_if(
      tenants.begin(), tenants.end(),
      [&](const ScenarioTenantConfig& t) { return t.name == line.name; });
  if (it == tenants.end()) {
    tenants.push_back(line);
  } else {
    it->overrides.push_back(line.overrides.front());
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

    const Status status =
        key == "include"
            ? IncludeFile(ResolvePath(include_dir, value), depth + 1, config)
        : key.rfind("tenant.", 0) == 0
            ? AddTenantOverride(key, value, config)
            : SetScenarioKey(config, key, value, include_dir);
    if (!status.ok()) {
      return InvalidArgumentError(
          StrFormat("scenario line %d: %s", line_number,
                    status.ToString().c_str()));
    }
  }
  return Status::Ok();
}

// Checks the `points` a serving point would pre-generate against
// kMaxLookupPoints, naming `key` = `value` in the one-line error.
Status CheckLookupPoints(const std::string& key, long long value,
                         long long points) {
  if (points <= kMaxLookupPoints) return Status::Ok();
  return InvalidArgumentError(
      "scenario: " + key + " = " + std::to_string(value) +
      " is out of range: " + std::to_string(points) +
      " pre-generated lookup points exceed " +
      std::to_string(kMaxLookupPoints));
}

}  // namespace

Result<uint64_t> ParseSeed(const std::string& item) {
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

Status SetScenarioKey(ScenarioConfig* config, const std::string& key,
                      const std::string& value,
                      const std::string& include_dir) {
  const KeySpec* spec = FindKey(key);
  if (spec == nullptr) {
    return InvalidArgumentError("unknown scenario key '" + key + "'");
  }
  return Set(*spec, spec->name,
             spec->path ? ResolvePath(include_dir, value) : value, config);
}

Result<ScenarioConfig> TenantEffectiveConfig(
    const ScenarioConfig& config, const ScenarioRun& run,
    const ScenarioTenantConfig& tenant) {
  ScenarioConfig eff = config;
  eff.tenants.clear();
  eff.algorithms = {run.algorithm};
  eff.heights = {run.height};
  eff.seeds = {run.seed};
  for (const auto& [sub, value] : tenant.overrides) {
    const std::string key = "tenant." + tenant.name + "." + sub;
    const KeySpec* spec = FindKey(sub, /*tenant=*/true);
    if (spec == nullptr) {
      return InvalidArgumentError("unknown scenario key '" + key +
                                  "' (see TenantScenarioKeyNames for the "
                                  "accepted tenant.<name>.* sub-keys)");
    }
    FAIRIDX_RETURN_IF_ERROR(Set(*spec, key, value, &eff));
    if (eff.algorithms.size() != 1 || eff.heights.size() != 1 ||
        eff.seeds.size() != 1) {
      return InvalidArgumentError(key + " = " + value +
                                  " names more than one sweep point");
    }
    // A tenant's own city is its own dataset.
    if (sub == "city") eff.csv.clear();
  }
  return eff;
}

Status ValidateScenario(const ScenarioConfig& config) {
  for (const KeySpec& spec : kKeys) {
    FAIRIDX_RETURN_IF_ERROR(CheckKey(spec, spec.name, config, spec.lo));
  }
  if (!(config.test_fraction > 0.0 && config.test_fraction < 1.0)) {
    return InvalidArgumentError(
        "scenario: test_fraction must be in (0, 1)");
  }
  // The stream, serve and multi_tenant workloads all drive the serving
  // layer; the keys below are meaningful for any of them and typos for
  // pipeline.
  const bool serving_workload = config.workload != ScenarioWorkload::kPipeline;
  if (serving_workload && config.min_region_population > 0.0) {
    // The serving layer has no region-merging post-process; silently
    // dropping the key would violate the engine's typo-proof stance.
    return InvalidArgumentError(
        "scenario: min_region_population is not supported with "
        "workload = stream, serve or multi_tenant");
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
  if (config.workload == ScenarioWorkload::kServe &&
      config.maintain_policy != ScenarioMaintainPolicy::kAuto) {
    // Serve workers never seal or refine — without the background
    // scheduler nothing would, and lookups would serve epoch 0 forever.
    return InvalidArgumentError(
        "scenario: workload = serve requires maintain_policy = auto "
        "(the background scheduler owns maintenance; workers only "
        "look up and ingest)");
  }
  // Under serve every reader pre-generates serve_lookups points (both
  // factors are bounded ints, so the product cannot overflow).
  const long long readers =
      config.workload == ScenarioWorkload::kServe ? config.serve_readers : 1;
  FAIRIDX_RETURN_IF_ERROR(CheckLookupPoints(
      "serve_lookups", config.serve_lookups, readers * config.serve_lookups));
  if (config.drift != "none" && !serving_workload) {
    // The drift generator permutes the ingest tail; a pipeline sweep has
    // no tail, so accepting the key would hide the typo.
    return InvalidArgumentError(
        "scenario: drift requires workload = stream, serve or "
        "multi_tenant");
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
  // Each tenant's overrides pass the same table checks under their own
  // names; each tenant's one worker pre-generates its lookups.
  const ScenarioRun first{config.algorithms[0], config.heights[0],
                          config.seeds[0]};
  long long tenant_lookups = 0;
  for (const ScenarioTenantConfig& tenant : config.tenants) {
    FAIRIDX_ASSIGN_OR_RETURN(ScenarioConfig eff,
                             TenantEffectiveConfig(config, first, tenant));
    for (const auto& [sub, value] : tenant.overrides) {
      const KeySpec& spec = *FindKey(sub, /*tenant=*/true);
      FAIRIDX_RETURN_IF_ERROR(
          CheckKey(spec, "tenant." + tenant.name + "." + sub, eff,
                   spec.tenant_lo.value_or(spec.lo)));
    }
    tenant_lookups += eff.serve_lookups;
  }
  return CheckLookupPoints("sum of tenant lookups", tenant_lookups,
                           tenant_lookups);
}

std::string ScenarioWorkloadName(ScenarioWorkload workload) {
  return Split(FindKey("workload")->choices, '|')[static_cast<int>(workload)];
}

std::vector<std::string> ScenarioKeyNames() {
  std::vector<std::string> keys = {"include"};
  for (const KeySpec& spec : kKeys) {
    keys.push_back(spec.name);
    if (spec.alias != nullptr) keys.push_back(spec.alias);
  }
  return keys;
}

std::vector<std::string> TenantScenarioKeyNames() {
  std::vector<std::string> keys;
  for (const KeySpec& spec : kKeys) {
    if (spec.tenant != nullptr) {
      keys.push_back(std::string("tenant.<name>.") + spec.tenant);
    }
  }
  return keys;
}

std::optional<std::pair<long long, long long>> ScenarioKeyIntBounds(
    const std::string& key) {
  const std::string prefix = "tenant.<name>.";
  const bool tenant = key.rfind(prefix, 0) == 0;
  const KeySpec* spec =
      tenant ? FindKey(key.substr(prefix.size()), true) : FindKey(key);
  if (spec == nullptr || !IsInteger(*spec)) return std::nullopt;
  const double lo = tenant ? spec->tenant_lo.value_or(spec->lo) : spec->lo;
  return std::make_pair(static_cast<long long>(lo),
                        static_cast<long long>(spec->hi));
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
  const int city = ChoiceIndex(kCityChoices, config.city);
  if (city < 0) {
    return InvalidArgumentError(ChoiceError("city", config.city, kCityChoices));
  }
  return GenerateEdgapCity(kCityConfigs[city]());
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
  // The stage-1 base-grid scores (task 0, numeric ids), without the
  // indicators TrainOnBaseGrid would add.
  PartitionerContext context = MakePipelinePartitionerContext(
      dataset, split, prototype, PartitionerBuildOptions{});
  FAIRIDX_ASSIGN_OR_RETURN(const std::vector<double>* scores,
                           context.InitialScores());
  StreamFeed feed;
  feed.all.cell_ids = dataset.base_cells();
  feed.all.labels = dataset.labels(config.task);
  feed.all.scores = *scores;
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
    AggregateBatch drifted = feed.all.Slice(0, feed.warmup);
    for (size_t i : order) {
      drifted.Append(feed.all.cell_ids[i], feed.all.labels[i],
                     feed.all.scores[i]);
    }
    feed.all = std::move(drifted);
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
                 TenantRegistry& registry,
                 const ScenarioIngestHook& after_ingest, Worker& me) {
  FAIRIDX_ASSIGN_OR_RETURN(FairIndexService* service,
                           registry.tenant(tenant));
  const auto ingest = [&](AggregateBatch batch) -> Status {
    FAIRIDX_RETURN_IF_ERROR(
        registry.Ingest(tenant, std::move(batch)).status());
    if (after_ingest) after_ingest();
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
    const Classifier& prototype, const ScenarioRun& run,
    const ScenarioIngestHook& after_ingest) {
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
    sections.push_back({point, {}});
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
    FAIRIDX_ASSIGN_OR_RETURN(t.eff,
                             TenantEffectiveConfig(config, run, sections[i]));
    // A stream worker never looks anything up: it is a pure ingester.
    if (config.workload == ScenarioWorkload::kStream) t.eff.serve_lookups = 0;
    t.run = ExpandScenario(t.eff).front();
    t.data = &dataset;
    if (t.eff.city != config.city || t.eff.csv != config.csv) {
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
      me->status = RunWorker(t.eff, t.name, *registry, after_ingest, *me);
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
    row.final_regions = service->QueryRegions();
    row.regions = static_cast<int>(row.final_regions.size());
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
    row.final_ence = RegionEnce(row.final_regions).ence;
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
                                   const Dataset& dataset,
                                   const ScenarioIngestHook& after_ingest) {
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
            return RunOneServingPoint(config, dataset, *prototype, run,
                                      after_ingest);
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
