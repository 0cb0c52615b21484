// Robustness and spec-pinning tests across seeds, classifiers and
// configurations that the figure benches rely on.

#include <gtest/gtest.h>

#include <map>

#include "core/experiment_config.h"
#include "core/pipeline.h"
#include "data/edgap_synthetic.h"
#include "index/kd_tree.h"
#include "ml/fair_logistic_regression.h"

namespace fairidx {
namespace {

Dataset MakeCity(uint64_t seed, int n = 500) {
  CityConfig config;
  config.num_records = n;
  config.seed = seed;
  config.grid_rows = 32;
  config.grid_cols = 32;
  return GenerateEdgapCity(config).value();
}

// Mean final train ENCE over `splits` RunPipeline runs, each on its own
// deterministic train/test split seed.
double MeanTrainEnce(const Dataset& city, const Classifier& prototype,
                     const PipelineOptions& options, int splits) {
  double sum = 0.0;
  for (int k = 0; k < splits; ++k) {
    PipelineOptions run_options = options;
    run_options.split_seed =
        options.split_seed * 1000003ULL + static_cast<uint64_t>(k);
    const auto run = RunPipeline(city, prototype, run_options);
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) return 0.0;
    sum += run->final_model.eval.train_ence;
  }
  return sum / splits;
}

// The finest height in [0, max_height] whose final train ENCE is within
// `budget` (0 when none is).
int FinestHeightWithinBudget(const Dataset& city, const Classifier& prototype,
                             PartitionAlgorithm algorithm, int max_height,
                             double budget) {
  int selected = 0;
  for (int height = 0; height <= max_height; ++height) {
    PipelineOptions options;
    options.algorithm = algorithm;
    options.height = height;
    const auto run = RunPipeline(city, prototype, options);
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) return -1;
    if (run->final_model.eval.train_ence <= budget) selected = height;
  }
  return selected;
}

// --- The headline claim must hold across city seeds (on average). ---

class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, FairBeatsMedianOnAverageAcrossFolds) {
  const Dataset city = MakeCity(GetParam());
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions median_options;
  median_options.algorithm = PartitionAlgorithm::kMedianKdTree;
  median_options.height = 6;
  PipelineOptions fair_options = median_options;
  fair_options.algorithm = PartitionAlgorithm::kFairKdTree;

  EXPECT_LT(MeanTrainEnce(city, *prototype, fair_options, 3),
            MeanTrainEnce(city, *prototype, median_options, 3))
      << "seed " << GetParam();
}

TEST_P(SeedSweepTest, AccuracyComparableAcrossAlgorithms) {
  // The paper's utility claim: fairness does not cost accuracy. Allow a
  // few points of slack per seed.
  const Dataset city = MakeCity(GetParam());
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.height = 6;
  options.algorithm = PartitionAlgorithm::kMedianKdTree;
  const auto median = RunPipeline(city, *prototype, options);
  options.algorithm = PartitionAlgorithm::kFairKdTree;
  const auto fair = RunPipeline(city, *prototype, options);
  ASSERT_TRUE(median.ok());
  ASSERT_TRUE(fair.ok());
  EXPECT_GT(fair->final_model.eval.test_accuracy,
            median->final_model.eval.test_accuracy - 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(42, 7, 99, 12345));

TEST(CrossValidationTest, FairBeatsMedianOnAverage) {
  // The headline comparison, stabilised over five train/test splits.
  const Dataset city = MakeCity(55, 400);
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions median_options;
  median_options.algorithm = PartitionAlgorithm::kMedianKdTree;
  median_options.height = 5;
  PipelineOptions fair_options = median_options;
  fair_options.algorithm = PartitionAlgorithm::kFairKdTree;
  EXPECT_LT(MeanTrainEnce(city, *prototype, fair_options, 5),
            MeanTrainEnce(city, *prototype, median_options, 5));
}

TEST(HeightSelectionTest, FairTreeQualifiesAtHigherHeightThanMedian) {
  // Because the fair tree has lower ENCE at every height, a fixed budget
  // should admit at least as fine a partitioning as the median tree.
  const Dataset city = MakeCity(91, 400);
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  EXPECT_GE(FinestHeightWithinBudget(city, *prototype,
                                     PartitionAlgorithm::kFairKdTree, 7,
                                     0.04),
            FinestHeightWithinBudget(city, *prototype,
                                     PartitionAlgorithm::kMedianKdTree, 7,
                                     0.04));
}

// --- Axis convention pinning (Algorithm 1/3: axis = th mod 2). ---

TEST(AxisConventionTest, OddRootHeightSplitsColumnsFirst) {
  const Grid grid =
      Grid::Create(8, 8, BoundingBox{0, 0, 8, 8}).value();
  std::vector<int> cells;
  std::vector<int> labels;
  std::vector<double> scores;
  for (int cell = 0; cell < 64; ++cell) {
    cells.push_back(cell);
    labels.push_back(0);
    scores.push_back(0.0);
  }
  const GridAggregates agg =
      GridAggregates::Build(grid, cells, labels, scores).value();
  KdTreeOptions options;
  options.height = 1;  // th = 1 -> axis 1 -> column (vertical) cut.
  const auto tree = BuildKdTreePartition(grid, agg, options);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->result.regions.size(), 2u);
  EXPECT_EQ(tree->result.regions[0].num_rows(), 8);
  EXPECT_LT(tree->result.regions[0].num_cols(), 8);
}

TEST(AxisConventionTest, EvenRootHeightSplitsRowsFirst) {
  const Grid grid =
      Grid::Create(8, 8, BoundingBox{0, 0, 8, 8}).value();
  std::vector<int> cells;
  std::vector<int> labels;
  std::vector<double> scores;
  for (int cell = 0; cell < 64; ++cell) {
    cells.push_back(cell);
    labels.push_back(0);
    scores.push_back(0.0);
  }
  const GridAggregates agg =
      GridAggregates::Build(grid, cells, labels, scores).value();
  KdTreeOptions options;
  options.height = 2;  // th = 2 -> axis 0 -> row (horizontal) cut first.
  const auto tree = BuildKdTreePartition(grid, agg, options);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->result.regions.size(), 4u);
  // After a row cut then column cuts, every leaf spans 4 rows x 4 cols.
  for (const CellRect& leaf : tree->result.regions) {
    EXPECT_EQ(leaf.num_rows(), 4);
    EXPECT_EQ(leaf.num_cols(), 4);
  }
}

// --- In-processing classifier integrates with the pipeline. ---

TEST(PipelineWithFairLrTest, RunsAndReducesEnceVersusPlainLr) {
  const Dataset city = MakeCity(42);
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kMedianKdTree;
  options.height = 6;

  const auto plain_prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  const auto plain = RunPipeline(city, *plain_prototype, options);
  ASSERT_TRUE(plain.ok());

  FairLogisticRegressionOptions fair_options;
  fair_options.fairness_weight = 10.0;
  FairLogisticRegression fair_prototype(fair_options);
  const auto fair = RunPipeline(city, fair_prototype, options);
  ASSERT_TRUE(fair.ok());

  // The penalty targets exactly train ENCE over the neighborhoods used as
  // groups (the design matrix's last column).
  EXPECT_LE(fair->final_model.eval.train_ence,
            plain->final_model.eval.train_ence + 1e-6);
}

// --- Degenerate but legal configurations. ---

TEST(PipelineEdgeCaseTest, HeightZeroSingleNeighborhood) {
  const Dataset city = MakeCity(5);
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kFairKdTree;
  options.height = 0;
  const auto run = RunPipeline(city, *prototype, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->final_model.eval.num_neighborhoods, 1);
  // ENCE over one region equals overall miscalibration (Theorem 1 tight).
  EXPECT_NEAR(run->final_model.eval.train_ence,
              run->final_model.eval.train_miscalibration, 1e-9);
}

TEST(PipelineEdgeCaseTest, HeightBeyondGridResolutionSaturates) {
  CityConfig config;
  config.num_records = 200;
  config.seed = 3;
  config.grid_rows = 4;
  config.grid_cols = 4;
  const Dataset city = GenerateEdgapCity(config).value();
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kFairKdTree;
  options.height = 10;  // Grid only has 16 cells.
  const auto run = RunPipeline(city, *prototype, options);
  ASSERT_TRUE(run.ok());
  EXPECT_LE(run->partition.partition.num_regions(), 16);
}

TEST(PipelineEdgeCaseTest, TinyDatasetStillRuns) {
  CityConfig config;
  config.num_records = 40;
  config.seed = 8;
  config.grid_rows = 8;
  config.grid_cols = 8;
  const Dataset city = GenerateEdgapCity(config).value();
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kIterativeFairKdTree;
  options.height = 3;
  const auto run = RunPipeline(city, *prototype, options);
  ASSERT_TRUE(run.ok()) << run.status();
}

TEST(PipelineEdgeCaseTest, MinRegionPopulationEnforced) {
  const Dataset city = MakeCity(42);
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kFairKdTree;
  options.height = 7;
  options.min_region_population = 6.0;
  const auto run = RunPipeline(city, *prototype, options);
  ASSERT_TRUE(run.ok());
  // Count records per final neighborhood.
  std::map<int, int> population;
  for (int neighborhood : run->record_neighborhoods) {
    ++population[neighborhood];
  }
  for (const auto& [neighborhood, count] : population) {
    EXPECT_GE(count, 6) << "neighborhood " << neighborhood;
  }
  // And it still improves on the median tree without the constraint.
  PipelineOptions median_options;
  median_options.algorithm = PartitionAlgorithm::kMedianKdTree;
  median_options.height = 7;
  const auto median = RunPipeline(city, *prototype, median_options);
  ASSERT_TRUE(median.ok());
  EXPECT_LT(run->final_model.eval.train_ence,
            median->final_model.eval.train_ence);
}

TEST(PipelineEdgeCaseTest, ExtremeTestFractionsRejectedOrHandled) {
  const Dataset city = MakeCity(11, 100);
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.test_fraction = 0.0;
  EXPECT_FALSE(RunPipeline(city, *prototype, options).ok());
  options.test_fraction = 1.0;
  EXPECT_FALSE(RunPipeline(city, *prototype, options).ok());
}

}  // namespace
}  // namespace fairidx
