// Tests for the declarative scenario subsystem: the key = value parser
// (comments, lists, ranges, includes, override order, error cases), the
// sweep expansion, and the engine executing a small config end to end.

#include "core/scenario.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "data/edgap_synthetic.h"
#include "service/checkpoint.h"

namespace fairidx {
namespace {

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  const std::string path =
      ::testing::TempDir() + "/fairidx_scenario_" + name;
  std::ofstream file(path);
  file << content;
  return path;
}

TEST(ScenarioParseTest, ParsesEveryKey) {
  const auto config = ParseScenarioText(
      "# full-line comment\n"
      "name = demo           # trailing comment\n"
      "city = houston\n"
      "classifier = tree\n"
      "algorithms = fair_kd_tree, median_kd_tree\n"
      "heights = 3, 5\n"
      "seeds = 7, 8, 9\n"
      "task = 1\n"
      "threads = 4\n"
      "test_fraction = 0.3\n"
      "min_region_population = 12\n",
      "");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->name, "demo");
  EXPECT_EQ(config->city, "houston");
  EXPECT_EQ(config->classifier, ClassifierKind::kDecisionTree);
  ASSERT_EQ(config->algorithms.size(), 2u);
  EXPECT_EQ(config->algorithms[0], PartitionAlgorithm::kFairKdTree);
  EXPECT_EQ(config->algorithms[1], PartitionAlgorithm::kMedianKdTree);
  EXPECT_EQ(config->heights, (std::vector<int>{3, 5}));
  EXPECT_EQ(config->seeds, (std::vector<uint64_t>{7, 8, 9}));
  EXPECT_EQ(config->task, 1);
  EXPECT_EQ(config->threads, 4);
  EXPECT_DOUBLE_EQ(config->test_fraction, 0.3);
  EXPECT_DOUBLE_EQ(config->min_region_population, 12.0);
}

TEST(ScenarioParseTest, HeightRangesAndAllAlgorithms) {
  const auto config = ParseScenarioText(
      "heights = 2..4, 8\n"
      "algorithms = all\n",
      "");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->heights, (std::vector<int>{2, 3, 4, 8}));
  EXPECT_EQ(config->algorithms.size(), AllPartitionAlgorithms().size());
}

TEST(ScenarioParseTest, DefaultsAreSane) {
  const auto config = ParseScenarioText("name = empty\n", "");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->algorithms,
            (std::vector<PartitionAlgorithm>{
                PartitionAlgorithm::kFairKdTree}));
  EXPECT_EQ(config->heights, (std::vector<int>{6}));
  EXPECT_EQ(config->seeds.size(), 1u);
}

TEST(ScenarioParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseScenarioText("not a key value line\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("unknown_key = 3\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("heights = -2\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("heights = 5..3\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("heights = x\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("algorithms = warp_drive\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("classifier = svm\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("seeds = banana\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("seeds = -1\n", "").ok());
  EXPECT_FALSE(
      ParseScenarioText("seeds = 99999999999999999999999\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("test_fraction = 1.5\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("threads = 0\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("algorithms = \n", "").ok());
}

TEST(ScenarioParseTest, IncludesResolveAndLaterKeysOverride) {
  const std::string base = WriteTempFile(
      "base.cfg",
      "city = houston\n"
      "heights = 4\n"
      "threads = 2\n");
  // The include sits first, so the including file's keys win.
  const std::string child_content = "include = " + base +
                                    "\n"
                                    "heights = 7\n";
  const std::string child = WriteTempFile("child.cfg", child_content);
  const auto config = LoadScenarioFile(child);
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->city, "houston");       // Inherited.
  EXPECT_EQ(config->threads, 2);            // Inherited.
  EXPECT_EQ(config->heights, (std::vector<int>{7}));  // Overridden.
}

TEST(ScenarioParseTest, IncludeCycleFailsCleanly) {
  const std::string path =
      ::testing::TempDir() + "/fairidx_scenario_cycle.cfg";
  std::ofstream(path) << "include = " + path + "\n";
  const auto config = LoadScenarioFile(path);
  EXPECT_FALSE(config.ok());
}

TEST(ScenarioParseTest, MissingFileFails) {
  EXPECT_FALSE(LoadScenarioFile("/nonexistent/scenario.cfg").ok());
}

TEST(ScenarioExpandTest, CrossProductHeightMajor) {
  ScenarioConfig config;
  config.algorithms = {PartitionAlgorithm::kMedianKdTree,
                       PartitionAlgorithm::kFairKdTree};
  config.heights = {3, 4};
  config.seeds = {1, 2};
  const auto runs = ExpandScenario(config);
  ASSERT_EQ(runs.size(), 8u);
  EXPECT_EQ(runs[0].height, 3);
  EXPECT_EQ(runs[0].algorithm, PartitionAlgorithm::kMedianKdTree);
  EXPECT_EQ(runs[0].seed, 1u);
  EXPECT_EQ(runs[1].seed, 2u);
  EXPECT_EQ(runs[2].algorithm, PartitionAlgorithm::kFairKdTree);
  EXPECT_EQ(runs[4].height, 4);
}

TEST(ScenarioEngineTest, RunsSweepEndToEnd) {
  CityConfig city;
  city.num_records = 400;
  city.seed = 9;
  city.grid_rows = 16;
  city.grid_cols = 16;
  const Dataset dataset = GenerateEdgapCity(city).value();

  ScenarioConfig config;
  config.name = "test";
  config.algorithms = {PartitionAlgorithm::kMedianKdTree,
                       PartitionAlgorithm::kFairKdTree};
  config.heights = {3};
  config.seeds = {11, 12};
  config.threads = 2;
  const auto report = RunScenario(config, dataset);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->rows.size(), 4u);
  for (const ScenarioRow& row : report->rows) {
    EXPECT_GT(row.regions, 1);
    EXPECT_GE(row.train_ence, 0.0);
    EXPECT_GT(row.train_accuracy, 0.5);
  }
  // Different seeds = different splits = (generally) different metrics;
  // at minimum the rows must be populated per run, not shared.
  EXPECT_EQ(report->rows[0].run.seed, 11u);
  EXPECT_EQ(report->rows[1].run.seed, 12u);

  // Determinism: the same scenario reruns bit-identically.
  const auto again = RunScenario(config, dataset);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < report->rows.size(); ++i) {
    EXPECT_EQ(report->rows[i].train_ence, again->rows[i].train_ence);
    EXPECT_EQ(report->rows[i].test_ence, again->rows[i].test_ence);
  }
}

TEST(ScenarioEngineTest, InvalidConfigRejected) {
  ScenarioConfig config;
  config.heights.clear();
  CityConfig city;
  city.num_records = 50;
  const Dataset dataset = GenerateEdgapCity(city).value();
  EXPECT_FALSE(RunScenario(config, dataset).ok());
}

TEST(ScenarioParseTest, ParsesStreamWorkloadKeys) {
  const auto config = ParseScenarioText(
      "workload = stream\n"
      "stream_batch = 250\n"
      "stream_shards = 4\n"
      "drift_bound = 0.05\n"
      "stream_warmup_pct = 40\n"
      "stream_seal_records = 500\n",
      "");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->workload, ScenarioWorkload::kStream);
  EXPECT_EQ(config->stream_batch, 250);
  EXPECT_EQ(config->stream_shards, 4);
  EXPECT_DOUBLE_EQ(config->drift_bound, 0.05);
  EXPECT_EQ(config->stream_warmup_pct, 40);
  EXPECT_EQ(config->stream_seal_records, 500);
}

TEST(ScenarioParseTest, RejectsBadStreamKeys) {
  EXPECT_FALSE(ParseScenarioText("workload = batch\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("stream_batch = 0\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("stream_shards = 0\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("stream_warmup_pct = 100\n", "").ok());
  EXPECT_FALSE(ParseScenarioText("stream_seal_records = -1\n", "").ok());
  // drift_bound is the one spelling of the bound; stream_refine_bound is
  // not a key.
  const auto alias = ParseScenarioText(
      "workload = stream\nstream_refine_bound = 0.05\n", "");
  ASSERT_FALSE(alias.ok());
  EXPECT_NE(alias.status().ToString().find("unknown scenario key"),
            std::string::npos)
      << alias.status().ToString();
  // No region-merging post-process exists on the stream path; the combo
  // must fail loudly rather than silently dropping the key.
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\nmin_region_population = 5\n", "")
                   .ok());
}

TEST(ScenarioParseTest, ParsesMaintenanceKeys) {
  const auto config = ParseScenarioText(
      "workload = stream\n"
      "maintain_policy = auto\n"
      "seal_interval = 0.25\n"
      "drift_bound = 0.07\n"
      "stream_seal_records = 300\n",
      "");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->maintain_policy, ScenarioMaintainPolicy::kAuto);
  EXPECT_DOUBLE_EQ(config->seal_interval, 0.25);
  // One field, so the caller loop and the scheduler share the bound.
  EXPECT_DOUBLE_EQ(config->drift_bound, 0.07);

  const auto caller = ParseScenarioText(
      "workload = stream\nmaintain_policy = caller\n", "");
  ASSERT_TRUE(caller.ok()) << caller.status();
  EXPECT_EQ(caller->maintain_policy, ScenarioMaintainPolicy::kCaller);
}

TEST(ScenarioParseTest, RejectsBadMaintenanceKeys) {
  // Typos in the policy name must not silently fall back to a default.
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\nmaintain_policy = background\n", "")
                   .ok());
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\nmaintain_policy = Auto\n", "")
                   .ok());
  // Out-of-range / unparsable values.
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\nmaintain_policy = auto\n"
                   "seal_interval = -0.5\n",
                   "")
                   .ok());
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\ndrift_bound = fast\n", "")
                   .ok());
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\nmaintain_policy = auto\n"
                   "seal_interval = abc\n",
                   "")
                   .ok());
  // Background-only knobs on a caller-driven (or pipeline) run must fail
  // loudly rather than silently never acting.
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\nseal_interval = 0.5\n", "")
                   .ok());
  EXPECT_FALSE(ParseScenarioText("maintain_policy = auto\n", "").ok());
}

TEST(ScenarioParseTest, ParsesDurabilityKeys) {
  const auto config = ParseScenarioText(
      "workload = stream\n"
      "wal_dir = /tmp/fairidx_wal\n"
      "checkpoint_interval = 4\n"
      "fsync = always\n"
      "retain_epochs = 6\n",
      "");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->wal_dir, "/tmp/fairidx_wal");
  EXPECT_EQ(config->checkpoint_interval, 4);
  EXPECT_EQ(config->fsync, "always");
  EXPECT_EQ(config->retain_epochs, 6);

  // Defaults: durability off, batch fsync, interval 8, no retention.
  const auto defaults = ParseScenarioText("workload = stream\n", "");
  ASSERT_TRUE(defaults.ok());
  EXPECT_TRUE(defaults->wal_dir.empty());
  EXPECT_EQ(defaults->checkpoint_interval, 8);
  EXPECT_EQ(defaults->fsync, "batch");
  EXPECT_EQ(defaults->retain_epochs, 0);
}

TEST(ScenarioParseTest, RejectsBadDurabilityKeys) {
  // A WAL only makes sense for the stream workload.
  EXPECT_FALSE(ParseScenarioText("wal_dir = /tmp/x\n", "").ok());
  // Unknown fsync mode must not silently fall back to a default.
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\nwal_dir = /tmp/x\nfsync = often\n",
                   "")
                   .ok());
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\nwal_dir = /tmp/x\nfsync = Batch\n",
                   "")
                   .ok());
  // Out-of-range values.
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\nretain_epochs = -1\n", "")
                   .ok());
  EXPECT_FALSE(ParseScenarioText(
                   "workload = stream\nwal_dir = /tmp/x\n"
                   "checkpoint_interval = x\n",
                   "")
                   .ok());
}

// Satellite pin for scenario-level parallelism: sweep points run on the
// shared pool, and the report must be bit-identical at any thread count
// (deterministic result ordering AND values).
TEST(ScenarioEngineTest, ParallelSweepMatchesSequentialBitForBit) {
  ScenarioConfig config;
  config.algorithms = {PartitionAlgorithm::kMedianKdTree,
                       PartitionAlgorithm::kFairKdTree};
  config.heights = {3, 4};
  config.seeds = {11, 12};
  CityConfig city;
  city.num_records = 260;
  const Dataset dataset = GenerateEdgapCity(city).value();

  config.threads = 1;
  const auto sequential = RunScenario(config, dataset);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  config.threads = 4;
  const auto parallel = RunScenario(config, dataset);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(sequential->rows.size(), parallel->rows.size());
  for (size_t i = 0; i < sequential->rows.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(sequential->rows[i].run.height, parallel->rows[i].run.height);
    EXPECT_EQ(sequential->rows[i].run.algorithm,
              parallel->rows[i].run.algorithm);
    EXPECT_EQ(sequential->rows[i].run.seed, parallel->rows[i].run.seed);
    EXPECT_EQ(sequential->rows[i].regions, parallel->rows[i].regions);
    EXPECT_EQ(sequential->rows[i].train_ence, parallel->rows[i].train_ence);
    EXPECT_EQ(sequential->rows[i].test_ence, parallel->rows[i].test_ence);
    EXPECT_EQ(sequential->rows[i].test_accuracy,
              parallel->rows[i].test_accuracy);
  }
}

// The stream workload end to end: rows in sweep order, deterministic
// reruns, and shard-count invariance (sealed epochs are bit-identical at
// any shard count, so the whole run — refine decisions included — must
// reproduce).
TEST(ScenarioEngineTest, StreamWorkloadRunsAndIsShardInvariant) {
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kStream;
  config.algorithms = {PartitionAlgorithm::kFairKdTree};
  config.heights = {4};
  config.seeds = {11, 12};
  config.stream_batch = 60;
  config.drift_bound = 0.02;
  config.stream_warmup_pct = 50;
  CityConfig city;
  city.num_records = 400;
  const Dataset dataset = GenerateEdgapCity(city).value();

  config.stream_shards = 1;
  const auto one_shard = RunScenario(config, dataset);
  ASSERT_TRUE(one_shard.ok()) << one_shard.status().ToString();
  EXPECT_EQ(one_shard->workload, ScenarioWorkload::kStream);
  EXPECT_TRUE(one_shard->rows.empty());
  ASSERT_EQ(one_shard->serving_rows.size(), 2u);
  for (const ScenarioServingRow& row : one_shard->serving_rows) {
    EXPECT_GT(row.regions, 1);
    EXPECT_EQ(row.records, 400);
    EXPECT_GT(row.epochs, 0);
    EXPECT_GE(row.final_ence, 0.0);
  }
  EXPECT_EQ(one_shard->serving_rows[0].run.seed, 11u);
  EXPECT_EQ(one_shard->serving_rows[1].run.seed, 12u);

  config.stream_shards = 3;
  config.threads = 2;  // Also exercise the parallel sweep path.
  const auto sharded = RunScenario(config, dataset);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded->serving_rows.size(), one_shard->serving_rows.size());
  for (size_t i = 0; i < sharded->serving_rows.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(sharded->serving_rows[i].regions,
              one_shard->serving_rows[i].regions);
    EXPECT_EQ(sharded->serving_rows[i].epochs,
              one_shard->serving_rows[i].epochs);
    EXPECT_EQ(sharded->serving_rows[i].resplits,
              one_shard->serving_rows[i].resplits);
    EXPECT_EQ(sharded->serving_rows[i].final_ence,
              one_shard->serving_rows[i].final_ence);
  }
}

// Background maintenance end to end: a maintain_policy = auto stream
// point must account for every record with NO caller-driven seal or
// refine (epoch/resplit counts are background-timing-dependent by
// design, so only invariants are asserted), across tree structures.
TEST(ScenarioEngineTest, StreamWorkloadAutoMaintainRunsHandsOff) {
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kStream;
  config.algorithms = {PartitionAlgorithm::kFairKdTree,
                       PartitionAlgorithm::kFairQuadtree};
  config.heights = {4};
  config.seeds = {11};
  config.stream_batch = 50;
  config.drift_bound = 0.02;
  config.stream_warmup_pct = 50;
  config.stream_seal_records = 100;
  config.maintain_policy = ScenarioMaintainPolicy::kAuto;
  config.seal_interval = 0.01;
  CityConfig city;
  city.num_records = 400;
  const Dataset dataset = GenerateEdgapCity(city).value();

  const auto report = RunScenario(config, dataset);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->serving_rows.size(), 2u);
  for (const ScenarioServingRow& row : report->serving_rows) {
    EXPECT_GT(row.regions, 1);
    EXPECT_EQ(row.records, 400);
    // The final quiescing seal always lands, so at least one epoch sealed
    // even if the scheduler never fired in time.
    EXPECT_GT(row.epochs, 0);
    EXPECT_GE(row.final_ence, 0.0);
  }
}

// Durable stream end to end through the engine: a wal_dir point must run
// like any other stream point AND leave a loadable checkpoint plus WAL
// state in its own per-sweep-point subdirectory (two seeds must not
// interleave their logs).
TEST(ScenarioEngineTest, StreamWorkloadWithWalLeavesRecoverableState) {
  const std::string wal_root =
      ::testing::TempDir() + "/fairidx_scenario_wal";
  std::filesystem::remove_all(wal_root);
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kStream;
  config.algorithms = {PartitionAlgorithm::kFairKdTree};
  config.heights = {4};
  config.seeds = {11, 12};
  config.stream_batch = 60;
  config.drift_bound = 0.02;
  config.stream_warmup_pct = 50;
  config.wal_dir = wal_root;
  config.checkpoint_interval = 1;
  config.fsync = "none";
  config.retain_epochs = 2;
  CityConfig city;
  city.num_records = 400;
  const Dataset dataset = GenerateEdgapCity(city).value();

  const auto report = RunScenario(config, dataset);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->serving_rows.size(), 2u);
  for (const ScenarioServingRow& row : report->serving_rows) {
    EXPECT_EQ(row.state, "serving");
  }

  for (uint64_t seed : {11, 12}) {
    const std::string point_dir =
        wal_root + "/fair_kd_tree-h4-s" + std::to_string(seed);
    SCOPED_TRACE(point_dir);
    auto checkpoint = LoadLatestCheckpoint(point_dir);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
    EXPECT_EQ(checkpoint->sealed_records, 400);
    EXPECT_EQ(checkpoint->algorithm, "fair_kd_tree");
  }
}

// Re-running a durable point over the same wal_dir recovers each point's
// tenant from its own namespace instead of refusing the non-empty
// directory: the rerun reports "recovered", holds every record exactly
// once, and (caller maintenance being deterministic) reproduces the
// first run's partition.
TEST(ScenarioEngineTest, StreamWorkloadRerunOverWalRecovers) {
  const std::string wal_root =
      ::testing::TempDir() + "/fairidx_scenario_wal_rerun";
  std::filesystem::remove_all(wal_root);
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kStream;
  config.algorithms = {PartitionAlgorithm::kFairKdTree};
  config.heights = {4};
  config.seeds = {11, 12};
  config.stream_batch = 60;
  config.wal_dir = wal_root;
  config.checkpoint_interval = 1;
  config.fsync = "none";
  CityConfig city;
  city.num_records = 400;
  const Dataset dataset = GenerateEdgapCity(city).value();

  const auto first = RunScenario(config, dataset);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const auto second = RunScenario(config, dataset);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->serving_rows.size(), first->serving_rows.size());
  for (size_t i = 0; i < first->serving_rows.size(); ++i) {
    SCOPED_TRACE(i);
    const ScenarioServingRow& a = first->serving_rows[i];
    const ScenarioServingRow& b = second->serving_rows[i];
    EXPECT_EQ(a.state, "serving");
    EXPECT_EQ(b.state, "recovered");
    EXPECT_EQ(b.tenant, a.tenant);
    EXPECT_EQ(b.records, 400);
    EXPECT_EQ(b.records, a.records);
    EXPECT_EQ(b.regions, a.regions);
    EXPECT_EQ(b.final_ence, a.final_ence);
  }
}

// A non-refinable structure under workload = stream fails the scenario
// with a clear precondition error instead of silently running the
// pipeline.
TEST(ScenarioEngineTest, StreamWorkloadRejectsNonRefinableAlgorithm) {
  ScenarioConfig config;
  config.workload = ScenarioWorkload::kStream;
  config.algorithms = {PartitionAlgorithm::kUniformGridReweight};
  config.heights = {3};
  CityConfig city;
  city.num_records = 120;
  const Dataset dataset = GenerateEdgapCity(city).value();
  EXPECT_FALSE(RunScenario(config, dataset).ok());
}

}  // namespace
}  // namespace fairidx
