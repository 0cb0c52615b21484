// Multi-tenant scenario engine coverage: `tenant.<name>.*` parsing and
// inheritance, the typo-rejecting validation extended to tenant
// sections, the drift generators' permutation-only contract (a drifted
// tail reorders records, never changes the multiset — so final sealed
// sums stay deterministic), and one end-to-end multi_tenant sweep point
// with a noisy neighbor (lookups = 0).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/scenario.h"
#include "data/edgap_synthetic.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

// ----- tenant.<name>.* parsing ---------------------------------------

TEST(MultiTenantParseTest, ParsesTenantSectionsInFirstAppearanceOrder) {
  const auto config = ParseScenarioText(
      "workload = multi_tenant\n"
      "maintain_policy = auto\n"
      "seal_interval = 0.01\n"
      "tenant.la-east.seal_records = 400\n"
      "tenant.firehose.lookups = 0\n"
      "tenant.la-east.height = 6\n"
      "tenant.firehose.drift = flash_crowd\n",
      "");
  ASSERT_TRUE(config.ok()) << config.status();
  ASSERT_EQ(config->tenants.size(), 2u);
  EXPECT_EQ(config->tenants[0].name, "la-east");
  EXPECT_EQ(config->tenants[1].name, "firehose");
  ASSERT_TRUE(config->tenants[0].seal_records.has_value());
  EXPECT_EQ(*config->tenants[0].seal_records, 400);
  ASSERT_TRUE(config->tenants[0].height.has_value());
  EXPECT_EQ(*config->tenants[0].height, 6);
  ASSERT_TRUE(config->tenants[1].lookups.has_value());
  EXPECT_EQ(*config->tenants[1].lookups, 0);
  ASSERT_TRUE(config->tenants[1].drift.has_value());
  EXPECT_EQ(*config->tenants[1].drift, "flash_crowd");
  // Unset sub-keys stay unset — they inherit at run time, so the config
  // records only what the section overrode.
  EXPECT_FALSE(config->tenants[0].zipf.has_value());
}

// Every documented tenant sub-key round-trips through the parser; a
// typo'd sub-key or tenant name is rejected with the same "unknown
// scenario key" contract the top-level parser pins.
TEST(MultiTenantParseTest, AcceptsEveryTenantSubKeyRejectsTypos) {
  for (const std::string& name : TenantScenarioKeyNames()) {
    // "tenant.<name>.sub" -> a concrete section name.
    std::string key = name;
    key.replace(key.find("<name>"), 6, "t1");
    const auto probe = ParseScenarioText(key + " = 1\n", "");
    if (!probe.ok()) {
      EXPECT_EQ(probe.status().ToString().find("unknown scenario key"),
                std::string::npos)
          << key << ": " << probe.status().ToString();
    }
    const auto mutated =
        ParseScenarioText("tenant.t1.zz_suffix = 1\n", "");
    ASSERT_FALSE(mutated.ok());
    EXPECT_NE(mutated.status().ToString().find("unknown scenario key"),
              std::string::npos);
  }
  EXPECT_FALSE(ParseScenarioText("tenant.bad/name.height = 4\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("tenant.t1 = 4\n", "").ok());
}

TEST(MultiTenantParseTest, ValidationRequiresCoherentTopLevel) {
  // multi_tenant needs at least one tenant section...
  auto none = ParseScenarioText(
      "workload = multi_tenant\nmaintain_policy = auto\n", "");
  EXPECT_FALSE(none.ok());
  // ...and background maintenance (the registry owns the scheduler).
  auto caller = ParseScenarioText(
      "workload = multi_tenant\ntenant.t1.height = 4\n", "");
  EXPECT_FALSE(caller.ok());
  // Tenant sections outside multi_tenant are dead config, not a no-op.
  auto stray = ParseScenarioText(
      "workload = serve\nmaintain_policy = auto\nseal_interval = 0.01\n"
      "tenant.t1.height = 4\n",
      "");
  EXPECT_FALSE(stray.ok());
  // Per-tenant values are range-checked with the tenant named.
  auto bad = ParseScenarioText(
      "workload = multi_tenant\nmaintain_policy = auto\n"
      "seal_interval = 0.01\ntenant.t1.warmup_pct = 0\n",
      "");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("tenant.t1."), std::string::npos);
  // Drift kinds are a closed set, top-level and per-tenant.
  EXPECT_FALSE(ParseScenarioText(
                   "workload = multi_tenant\nmaintain_policy = auto\n"
                   "seal_interval = 0.01\ntenant.t1.drift = sideways\n",
                   "")
                   .ok());
  EXPECT_FALSE(
      ParseScenarioText("workload = serve\nmaintain_policy = auto\n"
                        "seal_interval = 0.01\ndrift = sideways\n",
                        "")
          .ok());
  // Top-level drift requires a serving workload (a pipeline sweep has
  // no ingest tail to reorder).
  EXPECT_FALSE(ParseScenarioText("drift = hotspot\n", "").ok());
}

// ----- drift generators ----------------------------------------------

std::vector<int> TailCells(const Grid& grid, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> cells;
  for (size_t i = 0; i < n; ++i) {
    cells.push_back(static_cast<int>(rng.NextBounded(grid.num_cells())));
  }
  return cells;
}

// Whatever the drift kind, the order is a PERMUTATION of the tail
// indices [warmup, n): sorting it yields the identity. This is the
// property that keeps multi-tenant final sums deterministic.
TEST(DriftOrderTest, EveryDriftKindIsAPureTailPermutation) {
  const Grid grid = MakeGrid(8, 10);
  const std::vector<int> cells = TailCells(grid, 500, 42);
  const size_t warmup = 120;
  for (const std::string& drift : {"none", "hotspot", "flash_crowd"}) {
    for (int hot_pct : {1, 20, 100}) {
      for (int window_pct : {0, 50, 100}) {
        std::vector<size_t> order = ScenarioDriftTailOrder(
            drift, hot_pct, window_pct, grid, cells, warmup);
        ASSERT_EQ(order.size(), cells.size() - warmup) << drift;
        std::vector<size_t> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        for (size_t i = 0; i < sorted.size(); ++i) {
          ASSERT_EQ(sorted[i], warmup + i)
              << drift << " hot=" << hot_pct << " win=" << window_pct;
        }
      }
    }
  }
}

TEST(DriftOrderTest, IsDeterministic) {
  const Grid grid = MakeGrid(8, 10);
  const std::vector<int> cells = TailCells(grid, 400, 7);
  const auto a =
      ScenarioDriftTailOrder("hotspot", 20, 50, grid, cells, 100);
  const auto b =
      ScenarioDriftTailOrder("hotspot", 20, 50, grid, cells, 100);
  EXPECT_EQ(a, b);
}

// hotspot: the tail is banded by grid column — the hot window marches
// across the grid, so consecutive records concentrate in one vertical
// band at a time and band indices never decrease.
TEST(DriftOrderTest, HotspotMarchesAcrossColumnBands) {
  const Grid grid = MakeGrid(6, 12);
  const std::vector<int> cells = TailCells(grid, 600, 99);
  const size_t warmup = 100;
  const int hot_pct = 25;  // 4 bands.
  const auto order =
      ScenarioDriftTailOrder("hotspot", hot_pct, 50, grid, cells, warmup);
  const int bands = std::max(1, 100 / hot_pct);
  int last_band = 0;
  for (size_t index : order) {
    const int band = grid.ColOfCell(cells[index]) * bands / grid.cols();
    ASSERT_GE(band, last_band);
    last_band = band;
  }
  EXPECT_EQ(last_band, bands - 1);  // The sweep reached the far edge.
}

// flash_crowd: all hot-column records arrive in one contiguous burst at
// window_pct of the way through the cold tail, original order preserved
// on both sides of the splice.
TEST(DriftOrderTest, FlashCrowdBurstsHotColumnsMidStream) {
  const Grid grid = MakeGrid(6, 10);
  const std::vector<int> cells = TailCells(grid, 500, 1234);
  const size_t warmup = 80;
  const int hot_pct = 30;
  const int window_pct = 50;
  const auto order = ScenarioDriftTailOrder("flash_crowd", hot_pct,
                                            window_pct, grid, cells, warmup);
  const int hot_cols = std::max(1, grid.cols() * hot_pct / 100);
  const int hot_begin = (grid.cols() - hot_cols) / 2;
  const auto is_hot = [&](size_t index) {
    const int col = grid.ColOfCell(cells[index]);
    return col >= hot_begin && col < hot_begin + hot_cols;
  };
  // Hot records form exactly one contiguous run.
  size_t runs = 0;
  bool in_run = false;
  for (size_t index : order) {
    if (is_hot(index)) {
      if (!in_run) ++runs;
      in_run = true;
    } else {
      in_run = false;
    }
  }
  EXPECT_EQ(runs, 1u);
  // Relative order within each class is preserved (stable splice).
  std::vector<size_t> hot, cold;
  for (size_t index : order) (is_hot(index) ? hot : cold).push_back(index);
  EXPECT_TRUE(std::is_sorted(hot.begin(), hot.end()));
  EXPECT_TRUE(std::is_sorted(cold.begin(), cold.end()));
}

// ----- end to end ----------------------------------------------------

// One multi_tenant sweep point: one row per tenant, deterministic
// record/lookup counts, live partitions, and a pure-ingester noisy
// neighbor (lookups = 0) that still seals its whole stream.
TEST(MultiTenantEngineTest, RunsNoisyNeighborPoint) {
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kMultiTenant;
  config.algorithms = {PartitionAlgorithm::kFairKdTree};
  config.heights = {4};
  config.seeds = {11};
  config.stream_batch = 50;
  config.stream_warmup_pct = 50;
  config.stream_seal_records = 100;
  // Seal-only maintenance: region counts and final ENCE are then pure
  // functions of the record multiset, so the cross-tenant assertions
  // below cannot flake on background-refine timing.
  config.drift_bound = -1.0;
  config.maintain_policy = ScenarioMaintainPolicy::kAuto;
  config.seal_interval = 0.01;
  config.serve_lookups = 1500;
  config.serve_batch = 32;
  config.serve_read_pct = 80;
  config.serve_zipf = 0.99;

  ScenarioTenantConfig serving;
  serving.name = "serving";
  ScenarioTenantConfig finer;
  finer.name = "finer";
  finer.height = 5;
  finer.drift = "hotspot";
  ScenarioTenantConfig firehose;
  firehose.name = "firehose";
  firehose.lookups = 0;
  firehose.seal_records = 0;
  firehose.drift = "flash_crowd";
  config.tenants = {serving, finer, firehose};

  CityConfig city;
  city.num_records = 400;
  const Dataset dataset = GenerateEdgapCity(city).value();
  const auto report = RunScenario(config, dataset);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->serving_rows.size(), 3u);

  for (const ScenarioServingRow& row : report->serving_rows) {
    EXPECT_EQ(row.state, "serving") << row.tenant;
    EXPECT_EQ(row.records, 400) << row.tenant;
    EXPECT_GT(row.regions, 1) << row.tenant;
    EXPECT_GE(row.final_ence, 0.0) << row.tenant;
    EXPECT_GE(row.epochs, 1) << row.tenant;
  }
  EXPECT_EQ(report->serving_rows[0].tenant, "serving");
  EXPECT_EQ(report->serving_rows[1].tenant, "finer");
  EXPECT_EQ(report->serving_rows[2].tenant, "firehose");
  EXPECT_EQ(report->serving_rows[0].lookups, 1500);
  EXPECT_EQ(report->serving_rows[1].lookups, 1500);
  // The noisy neighbor never looks anything up; it only ingests.
  EXPECT_EQ(report->serving_rows[2].lookups, 0);
  EXPECT_EQ(report->serving_rows[2].p99_us, 0.0);
  EXPECT_GT(report->serving_rows[2].ingest_rps, 0.0);
  // The finer tenant's height override produced a deeper partition.
  EXPECT_GT(report->serving_rows[1].regions,
            report->serving_rows[0].regions);
}

// The same point re-run yields identical deterministic columns (records,
// lookups, regions, final ENCE) — the multi-tenant engine contract that
// timing affects only latency/throughput numbers.
TEST(MultiTenantEngineTest, DeterministicColumnsAcrossReruns) {
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kMultiTenant;
  config.algorithms = {PartitionAlgorithm::kFairKdTree};
  config.heights = {3};
  config.seeds = {5};
  config.stream_batch = 40;
  config.stream_warmup_pct = 50;
  config.stream_seal_records = 80;
  config.drift_bound = -1.0;  // Seal-only: see above.
  config.maintain_policy = ScenarioMaintainPolicy::kAuto;
  config.seal_interval = 0.01;
  config.serve_lookups = 500;
  config.serve_batch = 16;
  config.serve_read_pct = 70;
  ScenarioTenantConfig a;
  a.name = "a";
  ScenarioTenantConfig b;
  b.name = "b";
  b.drift = "hotspot";
  config.tenants = {a, b};

  CityConfig city;
  city.num_records = 300;
  const Dataset dataset = GenerateEdgapCity(city).value();
  const auto first = RunScenario(config, dataset);
  ASSERT_TRUE(first.ok()) << first.status();
  const auto second = RunScenario(config, dataset);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(first->serving_rows.size(), second->serving_rows.size());
  for (size_t i = 0; i < first->serving_rows.size(); ++i) {
    EXPECT_EQ(first->serving_rows[i].records,
              second->serving_rows[i].records);
    EXPECT_EQ(first->serving_rows[i].lookups,
              second->serving_rows[i].lookups);
    EXPECT_EQ(first->serving_rows[i].regions,
              second->serving_rows[i].regions);
    EXPECT_EQ(first->serving_rows[i].final_ence,
              second->serving_rows[i].final_ence);
  }
}

}  // namespace
}  // namespace fairidx
