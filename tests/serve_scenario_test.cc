// Serve-workload scenario tests: the serve_* keys parse and validate,
// workload = serve demands the background scheduler, and the engine runs
// a real mixed-traffic point end to end with deterministic record/lookup
// counts. Two anti-rot checks anchor the documentation: ScenarioKeyNames()
// must match the parser's actually-accepted key set, and the key table in
// docs/scenario_reference.md must list exactly those keys in the same
// order.

#include "core/scenario.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/edgap_synthetic.h"

namespace fairidx {
namespace {

TEST(ServeScenarioParseTest, ParsesEveryServeKey) {
  const auto config = ParseScenarioText(
      "workload = serve\n"
      "maintain_policy = auto\n"
      "stream_seal_records = 200\n"
      "serve_readers = 3\n"
      "serve_lookups = 1234\n"
      "serve_batch = 16\n"
      "serve_read_pct = 75\n"
      "serve_zipf = 1.25\n",
      "");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->workload, ScenarioWorkload::kServe);
  EXPECT_EQ(config->maintain_policy, ScenarioMaintainPolicy::kAuto);
  EXPECT_EQ(config->serve_readers, 3);
  EXPECT_EQ(config->serve_lookups, 1234);
  EXPECT_EQ(config->serve_batch, 16);
  EXPECT_EQ(config->serve_read_pct, 75);
  EXPECT_DOUBLE_EQ(config->serve_zipf, 1.25);
}

TEST(ServeScenarioParseTest, ServeDefaultsAreSane) {
  const auto config = ParseScenarioText(
      "workload = serve\n"
      "maintain_policy = auto\n"
      "stream_seal_records = 200\n",
      "");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->serve_readers, 2);
  EXPECT_EQ(config->serve_lookups, 50000);
  EXPECT_EQ(config->serve_batch, 64);
  EXPECT_EQ(config->serve_read_pct, 90);
  EXPECT_DOUBLE_EQ(config->serve_zipf, 0.99);
}

// Without the background scheduler nobody would seal or refine while the
// workers run — the config must be rejected, not silently degraded.
TEST(ServeScenarioParseTest, ServeRequiresAutoMaintenance) {
  const auto config = ParseScenarioText("workload = serve\n", "");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().ToString().find("maintain_policy = auto"),
            std::string::npos)
      << config.status().ToString();
}

TEST(ServeScenarioParseTest, RejectsBadServeValues) {
  const std::string base =
      "workload = serve\n"
      "maintain_policy = auto\n"
      "stream_seal_records = 200\n";
  EXPECT_FALSE(ParseScenarioText(base + "serve_readers = 0\n", "").ok());
  EXPECT_FALSE(ParseScenarioText(base + "serve_readers = banana\n", "").ok());
  EXPECT_FALSE(ParseScenarioText(base + "serve_lookups = 0\n", "").ok());
  EXPECT_FALSE(ParseScenarioText(base + "serve_batch = 0\n", "").ok());
  EXPECT_FALSE(ParseScenarioText(base + "serve_read_pct = 0\n", "").ok());
  EXPECT_FALSE(ParseScenarioText(base + "serve_read_pct = 101\n", "").ok());
  EXPECT_FALSE(ParseScenarioText(base + "serve_zipf = -0.5\n", "").ok());
  // Serve keys still reject typos like every other key.
  EXPECT_FALSE(ParseScenarioText(base + "serve_reader = 2\n", "").ok());
}

// ScenarioKeyNames() is the documented key list. Probe the parser with
// every name (must not be "unknown") and with a mutated name (must be
// "unknown"), so the exported list can neither miss an accepted key nor
// carry a stale one.
TEST(ServeScenarioKeysTest, KeyListMatchesParserAcceptedSet) {
  const std::vector<std::string> keys = ScenarioKeyNames();
  ASSERT_FALSE(keys.empty());
  for (const std::string& key : keys) {
    // "<key> = 1" may fail on the VALUE (e.g. algorithms = 1) or on
    // validation, but never as an unknown key.
    const auto probe = ParseScenarioText(key + " = 1\n", "");
    if (!probe.ok()) {
      EXPECT_EQ(probe.status().ToString().find("unknown scenario key"),
                std::string::npos)
          << key << ": " << probe.status().ToString();
    }
    const auto mutated = ParseScenarioText("zz_" + key + " = 1\n", "");
    ASSERT_FALSE(mutated.ok()) << "zz_" << key;
    EXPECT_NE(mutated.status().ToString().find("unknown scenario key"),
              std::string::npos)
        << key << ": " << mutated.status().ToString();
  }
}

// The reference doc's key tables (rows of the form "| `key` | ...") must
// list exactly ScenarioKeyNames() followed by TenantScenarioKeyNames()
// (the tenant.<name>.* table sits last in the doc), in the same order —
// a new parser key without a doc row, a doc row for a removed key, or a
// reordering all fail here.
TEST(ServeScenarioKeysTest, DocKeyTableMatchesScenarioKeyNames) {
  namespace fs = std::filesystem;
  const fs::path doc = fs::path(__FILE__).parent_path().parent_path() /
                       "docs" / "scenario_reference.md";
  ASSERT_TRUE(fs::exists(doc)) << "missing " << doc;
  std::ifstream in(doc);
  std::vector<std::string> doc_keys;
  std::string line;
  const std::string prefix = "| `";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const size_t end = line.find('`', prefix.size());
    ASSERT_NE(end, std::string::npos) << line;
    doc_keys.push_back(line.substr(prefix.size(), end - prefix.size()));
  }
  std::vector<std::string> want = ScenarioKeyNames();
  for (const std::string& key : TenantScenarioKeyNames()) {
    want.push_back(key);
  }
  EXPECT_EQ(doc_keys, want);
}

// One real serve point end to end: deterministic record and lookup
// counts, ordered percentiles, a live partition. Latency/QPS magnitudes
// are timing-dependent and only sanity-checked.
TEST(ServeScenarioEngineTest, ServeWorkloadRunsMixedTraffic) {
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kServe;
  config.algorithms = {PartitionAlgorithm::kFairKdTree};
  config.heights = {4};
  config.seeds = {11};
  config.stream_batch = 50;
  config.stream_warmup_pct = 50;
  config.stream_seal_records = 100;
  config.maintain_policy = ScenarioMaintainPolicy::kAuto;
  config.seal_interval = 0.01;
  config.serve_readers = 2;
  config.serve_lookups = 2000;
  config.serve_batch = 32;
  config.serve_read_pct = 80;
  config.serve_zipf = 0.99;
  CityConfig city;
  city.num_records = 400;
  const Dataset dataset = GenerateEdgapCity(city).value();

  const auto report = RunScenario(config, dataset);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->serving_rows.size(), 1u);
  const ScenarioServingRow& row = report->serving_rows[0];
  EXPECT_GT(row.regions, 1);
  // Every record lands: warmup + the fully drained ingest tail.
  EXPECT_EQ(row.records, 400);
  // Every pre-generated lookup point is answered, on every worker.
  EXPECT_EQ(row.lookups, 2LL * 2000);
  // The final quiescing seal always lands.
  EXPECT_GT(row.epochs, 0);
  EXPECT_GE(row.resplits, 0);
  EXPECT_GT(row.read_qps, 0.0);
  EXPECT_GT(row.seconds, 0.0);
  EXPECT_GE(row.p50_us, 0.0);
  EXPECT_LE(row.p50_us, row.p95_us);
  EXPECT_LE(row.p95_us, row.p99_us);
  EXPECT_GE(row.final_ence, 0.0);
}

// Uniform (zipf = 0) and single-reader single-batch corners still drain
// and answer everything.
TEST(ServeScenarioEngineTest, ServeCornerConfigsRun) {
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kServe;
  config.algorithms = {PartitionAlgorithm::kFairKdTree};
  config.heights = {3};
  config.seeds = {5};
  config.stream_batch = 40;
  config.stream_warmup_pct = 50;
  config.stream_seal_records = 80;
  config.maintain_policy = ScenarioMaintainPolicy::kAuto;
  config.serve_readers = 1;
  config.serve_lookups = 300;
  config.serve_batch = 1;
  config.serve_read_pct = 100;  // Lookups only; the tail drains after.
  config.serve_zipf = 0.0;
  CityConfig city;
  city.num_records = 240;
  const Dataset dataset = GenerateEdgapCity(city).value();

  const auto report = RunScenario(config, dataset);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->serving_rows.size(), 1u);
  const ScenarioServingRow& row = report->serving_rows[0];
  EXPECT_EQ(row.records, 240);
  EXPECT_EQ(row.lookups, 300);
  EXPECT_LE(row.p50_us, row.p99_us);
}

// A durable serve point rerun over the same wal_dir recovers its tenant
// (the single tenant named after the point, under <wal_dir>/<point>/)
// rather than failing on the non-empty directory, and every record is
// still held exactly once.
TEST(ServeScenarioEngineTest, ServeRerunOverWalRecovers) {
  const std::string wal_root =
      ::testing::TempDir() + "/fairidx_serve_wal_rerun";
  std::filesystem::remove_all(wal_root);
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kServe;
  config.algorithms = {PartitionAlgorithm::kFairKdTree};
  config.heights = {3};
  config.seeds = {5};
  config.stream_batch = 40;
  config.stream_seal_records = 80;
  config.maintain_policy = ScenarioMaintainPolicy::kAuto;
  config.serve_readers = 2;
  config.serve_lookups = 300;
  config.serve_batch = 16;
  config.wal_dir = wal_root;
  config.fsync = "none";
  CityConfig city;
  city.num_records = 240;
  const Dataset dataset = GenerateEdgapCity(city).value();

  const auto first = RunScenario(config, dataset);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->serving_rows.size(), 1u);
  EXPECT_EQ(first->serving_rows[0].state, "serving");
  EXPECT_EQ(first->serving_rows[0].tenant, "fair_kd_tree-h3-s5");
  EXPECT_TRUE(std::filesystem::exists(wal_root + "/fair_kd_tree-h3-s5"));

  const auto second = RunScenario(config, dataset);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->serving_rows.size(), 1u);
  const ScenarioServingRow& row = second->serving_rows[0];
  EXPECT_EQ(row.state, "recovered");
  EXPECT_EQ(row.records, 240);
  EXPECT_EQ(row.records, first->serving_rows[0].records);
  EXPECT_EQ(row.lookups, 2LL * 300);
}

}  // namespace
}  // namespace fairidx
