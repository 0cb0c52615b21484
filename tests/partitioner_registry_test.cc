// Conformance suite for the Partitioner registry: every registered
// algorithm must be (a) discoverable by its stable name, (b) bit-identical
// to its direct Build* entry point at several heights and thread counts,
// and (c) a structural no-op under Refine on unchanged aggregates. This is
// the contract that lets the pipeline, CLI, scenario engine and benches
// all dispatch through the registry without behavioural drift.

#include "index/partitioner.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/experiment_config.h"
#include "core/iterative_fair_kd_tree.h"
#include "core/multi_objective.h"
#include "core/pipeline.h"
#include "data/edgap_synthetic.h"
#include "index/kd_tree.h"
#include "index/quadtree.h"
#include "index/str_partition.h"
#include "index/uniform_grid.h"

namespace fairidx {
namespace {

Dataset MakeCity(int n = 500, uint64_t seed = 33) {
  CityConfig config;
  config.num_records = n;
  config.seed = seed;
  config.grid_rows = 32;
  config.grid_cols = 32;
  return GenerateEdgapCity(config).value();
}

struct Fixture {
  Dataset dataset;
  TrainTestSplit split;
  std::unique_ptr<Classifier> prototype;
};

Fixture MakeFixture() {
  Fixture f{MakeCity(), {},
            MakeClassifier(ClassifierKind::kLogisticRegression)};
  Rng rng(20240601);
  f.split = MakeStratifiedSplit(f.dataset.labels(0), 0.25, rng).value();
  return f;
}

PartitionerBuildOptions BuildOptions(int height, int threads,
                                     bool enable_refine = false) {
  PartitionerBuildOptions options;
  options.height = height;
  options.num_threads = threads;
  options.enable_refine = enable_refine;
  return options;
}

// The training-split aggregates RunPipeline's stage 2 consumes, built the
// direct way (mirrors what each Build* caller would hand-roll).
GridAggregates DirectAggregates(const Fixture& f,
                                const std::vector<double>& scores) {
  std::vector<int> cells;
  std::vector<int> labels;
  std::vector<double> train_scores;
  for (size_t i : f.split.train_indices) {
    cells.push_back(f.dataset.base_cells()[i]);
    labels.push_back(f.dataset.labels(0)[i]);
    train_scores.push_back(scores[i]);
  }
  return GridAggregates::Build(f.dataset.grid(), cells, labels,
                               train_scores)
      .value();
}

std::vector<double> InitialScores(const Fixture& f) {
  return TrainOnBaseGrid(f.dataset, f.split, *f.prototype, EvalOptions{})
      .value()
      .scores;
}

// Registry-built partition for `name` at (height, threads).
PartitionerOutput RegistryBuild(const Fixture& f, const std::string& name,
                                int height, int threads,
                                bool enable_refine = false) {
  auto partitioner = PartitionerRegistry::Global().Create(name);
  EXPECT_TRUE(partitioner.ok()) << partitioner.status();
  PartitionerContext context = MakePipelinePartitionerContext(
      f.dataset, f.split, *f.prototype,
      BuildOptions(height, threads, enable_refine));
  auto built = (*partitioner)->Build(context);
  EXPECT_TRUE(built.ok()) << name << ": " << built.status();
  return std::move(built).value();
}

TEST(PartitionerRegistryTest, EveryAlgorithmNameIsDiscoverable) {
  const std::vector<std::string> names =
      PartitionerRegistry::Global().Names();
  const std::set<std::string> name_set(names.begin(), names.end());
  for (PartitionAlgorithm algorithm : AllPartitionAlgorithms()) {
    const std::string name = PartitionAlgorithmName(algorithm);
    EXPECT_TRUE(name_set.count(name)) << name << " not registered";
    EXPECT_TRUE(PartitionerRegistry::Global().Contains(name));
    auto partitioner = PartitionerRegistry::Global().Create(name);
    ASSERT_TRUE(partitioner.ok()) << partitioner.status();
    EXPECT_EQ(name, (*partitioner)->name());
    // Round-trip through the shared parse map as well.
    auto parsed = ParsePartitionAlgorithm(name);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, algorithm);
  }
  EXPECT_FALSE(ParsePartitionAlgorithm("no_such_algorithm").ok());
  EXPECT_FALSE(PartitionerRegistry::Global().Create("no_such").ok());
}

TEST(PartitionerRegistryTest, CapabilitiesMatchAlgorithmContracts) {
  auto caps = [](const char* name) {
    return PartitionerRegistry::Global().Create(name).value()
        ->capabilities();
  };
  EXPECT_TRUE(caps("fair_kd_tree").needs_initial_scores);
  EXPECT_TRUE(caps("fair_kd_tree").supports_refine);
  EXPECT_TRUE(caps("median_kd_tree").supports_refine);
  EXPECT_FALSE(caps("median_kd_tree").needs_initial_scores);
  EXPECT_TRUE(caps("zip_codes").needs_zip_codes);
  EXPECT_FALSE(caps("zip_codes").produces_cell_partition);
  EXPECT_TRUE(caps("multi_objective_fair_kd_tree").needs_multi_task);
  EXPECT_TRUE(caps("iterative_fair_kd_tree").trains_models);
}

// --- (b) Bit-identical to the direct Build* entry points. ---

class RegistryEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RegistryEquivalenceTest, MedianKdTree) {
  const auto [height, threads] = GetParam();
  const Fixture f = MakeFixture();
  const GridAggregates aggregates = DirectAggregates(
      f, std::vector<double>(f.dataset.num_records(), 0.0));
  KdTreeOptions options;
  options.height = height;
  options.objective.kind = SplitObjectiveKind::kMedianCount;
  const KdTreeResult direct =
      BuildKdTreePartition(f.dataset.grid(), aggregates, options).value();
  const PartitionerOutput via_registry =
      RegistryBuild(f, "median_kd_tree", height, threads);
  EXPECT_EQ(direct.result.partition.cell_to_region(),
            via_registry.partition.partition.cell_to_region());
  EXPECT_EQ(direct.result.regions, via_registry.partition.regions);
}

TEST_P(RegistryEquivalenceTest, FairKdTree) {
  const auto [height, threads] = GetParam();
  const Fixture f = MakeFixture();
  const GridAggregates aggregates = DirectAggregates(f, InitialScores(f));
  KdTreeOptions options;
  options.height = height;
  const KdTreeResult direct =
      BuildKdTreePartition(f.dataset.grid(), aggregates, options).value();
  const PartitionerOutput via_registry =
      RegistryBuild(f, "fair_kd_tree", height, threads);
  EXPECT_EQ(direct.result.partition.cell_to_region(),
            via_registry.partition.partition.cell_to_region());
  EXPECT_EQ(via_registry.model_fits, 1);
}

TEST_P(RegistryEquivalenceTest, FairKdTreeWithRefineEnabled) {
  // The maintainer-backed (refine-capable) build must emit the same
  // partition as the plain build.
  const auto [height, threads] = GetParam();
  const Fixture f = MakeFixture();
  const PartitionerOutput fast =
      RegistryBuild(f, "fair_kd_tree", height, threads);
  const PartitionerOutput recorded =
      RegistryBuild(f, "fair_kd_tree", height, threads,
                    /*enable_refine=*/true);
  EXPECT_EQ(fast.partition.partition.cell_to_region(),
            recorded.partition.partition.cell_to_region());
}

TEST_P(RegistryEquivalenceTest, IterativeFairKdTree) {
  const auto [height, threads] = GetParam();
  const Fixture f = MakeFixture();
  IterativeFairKdTreeOptions options;
  options.height = height;
  options.num_threads = threads;
  const IterativeFairKdTreeResult direct =
      BuildIterativeFairKdTree(f.dataset, f.split, *f.prototype, options)
          .value();
  const PartitionerOutput via_registry =
      RegistryBuild(f, "iterative_fair_kd_tree", height, threads);
  EXPECT_EQ(direct.partition.partition.cell_to_region(),
            via_registry.partition.partition.cell_to_region());
  EXPECT_EQ(direct.retrain_count, via_registry.model_fits);
}

TEST_P(RegistryEquivalenceTest, MultiObjectiveFairKdTree) {
  const auto [height, threads] = GetParam();
  const Fixture f = MakeFixture();
  MultiObjectiveOptions options;
  options.height = height;
  options.num_threads = threads;
  const MultiObjectiveResult direct =
      BuildMultiObjectiveFairKdTree(f.dataset, f.split, *f.prototype,
                                    options)
          .value();
  const PartitionerOutput via_registry =
      RegistryBuild(f, "multi_objective_fair_kd_tree", height, threads);
  EXPECT_EQ(direct.partition.partition.cell_to_region(),
            via_registry.partition.partition.cell_to_region());
}

TEST_P(RegistryEquivalenceTest, UniformGridAndStrAndQuadtree) {
  const auto [height, threads] = GetParam();
  const Fixture f = MakeFixture();
  const int target_regions = 1 << height;

  const PartitionResult uniform =
      BuildUniformGridPartition(f.dataset.grid(), height).value();
  const PartitionerOutput uniform_registry =
      RegistryBuild(f, "grid_reweighting", height, threads);
  EXPECT_EQ(uniform.partition.cell_to_region(),
            uniform_registry.partition.partition.cell_to_region());
  EXPECT_TRUE(uniform_registry.reweight_by_neighborhood);

  const GridAggregates count_aggregates = DirectAggregates(
      f, std::vector<double>(f.dataset.num_records(), 0.0));
  const PartitionResult str =
      BuildStrPartition(f.dataset.grid(), count_aggregates, target_regions)
          .value();
  const PartitionerOutput str_registry =
      RegistryBuild(f, "str_slabs", height, threads);
  EXPECT_EQ(str.partition.cell_to_region(),
            str_registry.partition.partition.cell_to_region());

  const GridAggregates scored_aggregates =
      DirectAggregates(f, InitialScores(f));
  FairQuadtreeOptions quad_options;
  quad_options.target_regions = target_regions;
  const PartitionResult quad =
      BuildFairQuadtree(f.dataset.grid(), scored_aggregates, quad_options)
          .value();
  const PartitionerOutput quad_registry =
      RegistryBuild(f, "fair_quadtree", height, threads);
  EXPECT_EQ(quad.partition.cell_to_region(),
            quad_registry.partition.partition.cell_to_region());
}

INSTANTIATE_TEST_SUITE_P(
    HeightsAndThreads, RegistryEquivalenceTest,
    ::testing::Combine(::testing::Values(3, 5), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "h" + std::to_string(std::get<0>(info.param)) + "t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PartitionerRegistryTest, ZipCodesProducesRecordLevelPartition) {
  const Fixture f = MakeFixture();
  const PartitionerOutput out = RegistryBuild(f, "zip_codes", 5, 1);
  EXPECT_FALSE(out.has_cell_partition);
}

// --- (c) Refine on unchanged aggregates is a structural no-op. ---

TEST(PartitionerRegistryTest, RefineOnUnchangedAggregatesIsNoOp) {
  const Fixture f = MakeFixture();
  for (const char* name : {"median_kd_tree", "fair_kd_tree"}) {
    auto partitioner = PartitionerRegistry::Global().Create(name).value();
    ASSERT_TRUE(partitioner->capabilities().supports_refine);
    PartitionerContext context = MakePipelinePartitionerContext(
        f.dataset, f.split, *f.prototype,
        BuildOptions(5, 1, /*enable_refine=*/true));
    const PartitionerOutput built =
        partitioner->Build(context).value();
    const GridAggregates* aggregates =
        std::string(name) == "fair_kd_tree"
            ? context.ScoredAggregates().value()
            : context.CountAggregates().value();
    KdRefineOptions refine_options;
    refine_options.drift_bound = 0.0;  // Strictest bound: any drift at all.
    const KdRefineStats stats =
        partitioner->Refine(*aggregates, refine_options).value();
    EXPECT_FALSE(stats.changed) << name;
    EXPECT_EQ(stats.subtrees_rebuilt, 0) << name;
    EXPECT_EQ(stats.num_split_scans, 0) << name;
    ASSERT_NE(partitioner->maintained(), nullptr);
    EXPECT_EQ(partitioner->maintained()->partition.cell_to_region(),
              built.partition.partition.cell_to_region());
  }
}

TEST(PartitionerRegistryTest, RefineWithoutEnableRefineFails) {
  const Fixture f = MakeFixture();
  auto partitioner =
      PartitionerRegistry::Global().Create("fair_kd_tree").value();
  PartitionerContext context = MakePipelinePartitionerContext(
      f.dataset, f.split, *f.prototype, BuildOptions(4, 1));
  ASSERT_TRUE(partitioner->Build(context).ok());
  const GridAggregates* aggregates = context.ScoredAggregates().value();
  EXPECT_FALSE(partitioner->Refine(*aggregates, KdRefineOptions{}).ok());
  EXPECT_EQ(partitioner->maintained(), nullptr);
}

// --- Extensibility: external code can plug a new structure in. ---

class SingleRegionPartitioner : public Partitioner {
 public:
  const char* name() const override { return "test_single_region"; }
  PartitionerCapabilities capabilities() const override {
    return PartitionerCapabilities{};
  }
  Result<PartitionerOutput> Build(PartitionerContext& context) override {
    PartitionerOutput out;
    out.partition.partition =
        Partition::Single(context.dataset().grid().num_cells());
    out.partition.regions = {context.dataset().grid().FullRect()};
    return out;
  }
};

TEST(PartitionerRegistryTest, ExternalRegistrationWorks) {
  // Duplicate registrations are refused, first one wins.
  const bool first = PartitionerRegistry::Global().Register(
      "test_single_region",
      [] { return std::make_unique<SingleRegionPartitioner>(); });
  const bool second = PartitionerRegistry::Global().Register(
      "test_single_region",
      [] { return std::make_unique<SingleRegionPartitioner>(); });
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);  // Duplicate name: first registration wins.
  const Fixture f = MakeFixture();
  const PartitionerOutput out =
      RegistryBuild(f, "test_single_region", 4, 1);
  EXPECT_EQ(out.partition.partition.num_regions(), 1);
}

}  // namespace
}  // namespace fairidx
