// Integration tests for the end-to-end pipeline across all algorithms.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <set>

#include "core/experiment_config.h"
#include "data/edgap_synthetic.h"

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

class PipelineAlgorithmTest
    : public ::testing::TestWithParam<PartitionAlgorithm> {};

TEST_P(PipelineAlgorithmTest, RunsEndToEnd) {
  const Dataset dataset = MakeCity();
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = GetParam();
  options.height = 4;
  const auto run = RunPipeline(dataset, *prototype, options);
  ASSERT_TRUE(run.ok()) << run.status();

  EXPECT_EQ(run->record_neighborhoods.size(), dataset.num_records());
  EXPECT_EQ(run->final_model.scores.size(), dataset.num_records());
  EXPECT_GT(run->final_model.eval.num_neighborhoods, 1);
  EXPECT_GT(run->final_model.eval.train_accuracy, 0.5);
  EXPECT_GE(run->final_model.eval.train_ence, 0.0);
  // Train + test indices cover all records.
  EXPECT_EQ(run->split.train_indices.size() + run->split.test_indices.size(),
            dataset.num_records());
}

TEST_P(PipelineAlgorithmTest, DoesNotModifyInputDataset) {
  const Dataset dataset = MakeCity();
  const std::vector<int> before = dataset.neighborhoods();
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = GetParam();
  options.height = 3;
  ASSERT_TRUE(RunPipeline(dataset, *prototype, options).ok());
  EXPECT_EQ(dataset.neighborhoods(), before);
}

TEST_P(PipelineAlgorithmTest, DeterministicAcrossRuns) {
  const Dataset dataset = MakeCity();
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = GetParam();
  options.height = 4;
  const auto a = RunPipeline(dataset, *prototype, options);
  const auto b = RunPipeline(dataset, *prototype, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->record_neighborhoods, b->record_neighborhoods);
  EXPECT_EQ(a->final_model.eval.train_ence, b->final_model.eval.train_ence);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, PipelineAlgorithmTest,
    ::testing::Values(PartitionAlgorithm::kMedianKdTree,
                      PartitionAlgorithm::kFairKdTree,
                      PartitionAlgorithm::kIterativeFairKdTree,
                      PartitionAlgorithm::kMultiObjectiveFairKdTree,
                      PartitionAlgorithm::kUniformGridReweight,
                      PartitionAlgorithm::kZipCodes,
                      PartitionAlgorithm::kFairQuadtree,
                      PartitionAlgorithm::kStrSlabs),
    [](const ::testing::TestParamInfo<PartitionAlgorithm>& info) {
      return PartitionAlgorithmName(info.param);
    });

TEST(PipelineTest, FairBeatsMedianOnTrainEnce) {
  // The paper's headline claim, on the synthetic LA stand-in.
  const Dataset dataset = MakeCity(800, 42);
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions median_options;
  median_options.algorithm = PartitionAlgorithm::kMedianKdTree;
  median_options.height = 6;
  PipelineOptions fair_options = median_options;
  fair_options.algorithm = PartitionAlgorithm::kFairKdTree;

  const auto median = RunPipeline(dataset, *prototype, median_options);
  const auto fair = RunPipeline(dataset, *prototype, fair_options);
  ASSERT_TRUE(median.ok());
  ASSERT_TRUE(fair.ok());
  EXPECT_LT(fair->final_model.eval.train_ence,
            median->final_model.eval.train_ence);
}

TEST(PipelineTest, EnceGrowsWithHeight) {
  // Theorem 2's practical consequence, end to end.
  const Dataset dataset = MakeCity(800, 42);
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  double previous = -1.0;
  for (int height : {2, 5, 8}) {
    PipelineOptions options;
    options.algorithm = PartitionAlgorithm::kMedianKdTree;
    options.height = height;
    const auto run = RunPipeline(dataset, *prototype, options);
    ASSERT_TRUE(run.ok());
    EXPECT_GT(run->final_model.eval.train_ence, previous);
    previous = run->final_model.eval.train_ence;
  }
}

TEST(PipelineTest, ZipCodesUseDatasetZips) {
  const Dataset dataset = MakeCity();
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kZipCodes;
  const auto run = RunPipeline(dataset, *prototype, options);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->has_cell_partition);
  EXPECT_EQ(run->record_neighborhoods, dataset.zip_codes());
}

TEST(PipelineTest, ZipCodesRequireZips) {
  // A dataset without zips cannot run the zip baseline.
  const Dataset with_zips = MakeCity();
  Dataset no_zips =
      Dataset::Create(with_zips.grid(), with_zips.feature_names(),
                      with_zips.features(), with_zips.locations())
          .value();
  ASSERT_TRUE(
      no_zips.AddTask("ACT", with_zips.labels(kEdgapTaskAct)).ok());
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kZipCodes;
  EXPECT_FALSE(RunPipeline(no_zips, *prototype, options).ok());
}

TEST(PipelineTest, MultiObjectiveRequiresTwoTasks) {
  const Dataset with_zips = MakeCity();
  Dataset one_task =
      Dataset::Create(with_zips.grid(), with_zips.feature_names(),
                      with_zips.features(), with_zips.locations())
          .value();
  ASSERT_TRUE(
      one_task.AddTask("ACT", with_zips.labels(kEdgapTaskAct)).ok());
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kMultiObjectiveFairKdTree;
  EXPECT_FALSE(RunPipeline(one_task, *prototype, options).ok());
}

TEST(PipelineTest, RejectsBadOptions) {
  const Dataset dataset = MakeCity();
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.task = 9;
  EXPECT_FALSE(RunPipeline(dataset, *prototype, options).ok());
  options.task = 0;
  options.height = -2;
  EXPECT_FALSE(RunPipeline(dataset, *prototype, options).ok());
}

TEST(PipelineTest, TrainOnBaseGridRejectsOutOfRangeSplit) {
  const Dataset dataset = MakeCity();
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  TrainTestSplit split;
  split.train_indices = {0, 1, 2, 3};
  split.test_indices = {4, dataset.num_records() + 10};
  const auto result =
      TrainOnBaseGrid(dataset, split, *prototype, EvalOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(PipelineTest, WorksWithAllClassifierKinds) {
  const Dataset dataset = MakeCity();
  for (ClassifierKind kind : AllClassifierKinds()) {
    const auto prototype = MakeClassifier(kind);
    PipelineOptions options;
    options.algorithm = PartitionAlgorithm::kFairKdTree;
    options.height = 4;
    const auto run = RunPipeline(dataset, *prototype, options);
    ASSERT_TRUE(run.ok()) << ClassifierKindName(kind) << ": "
                          << run.status();
    EXPECT_GT(run->final_model.eval.train_accuracy, 0.5)
        << ClassifierKindName(kind);
  }
}

TEST(PipelineTest, IterativeCountsRetrains) {
  const Dataset dataset = MakeCity();
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = PartitionAlgorithm::kIterativeFairKdTree;
  options.height = 5;
  const auto run = RunPipeline(dataset, *prototype, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->partition_stage_fits, 5);
}

TEST(PipelineTest, AlgorithmNamesAreStable) {
  EXPECT_STREQ(PartitionAlgorithmName(PartitionAlgorithm::kFairKdTree),
               "fair_kd_tree");
  EXPECT_STREQ(
      PartitionAlgorithmName(PartitionAlgorithm::kUniformGridReweight),
      "grid_reweighting");
}

}  // namespace
}  // namespace fairidx
