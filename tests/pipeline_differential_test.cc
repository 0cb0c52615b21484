// RunPipeline (one NeighborhoodDesign per run: a score-only stage-1 fit,
// then the final fit rewriting only the neighborhood column(s)) against
// the copy-and-TrainAndEvaluate reference it replaced: a Dataset copy per
// fit, a full TrainAndEvaluate for the stage-1 scores, and the final fit
// on the re-districted copy. Every output must be bit-identical.

#include <cstring>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "core/experiment_config.h"
#include "core/pipeline.h"
#include "data/edgap_synthetic.h"

namespace fairidx {
namespace {

// The reference pipeline: RunPipeline as it ran before the shared design.
Result<PipelineRunResult> ReferenceRunPipeline(const Dataset& dataset,
                                               const Classifier& prototype,
                                               const PipelineOptions& options) {
  FAIRIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<Partitioner> partitioner,
      PartitionerRegistry::Global().Create(
          PartitionAlgorithmName(options.algorithm)));
  PipelineRunResult out;
  Rng split_rng(options.split_seed);
  FAIRIDX_ASSIGN_OR_RETURN(
      out.split, MakeStratifiedSplit(dataset.labels(options.task),
                                     options.test_fraction, split_rng));
  Dataset working = dataset;

  PartitionerContext::InitialScoreFn score_fn =
      [](const Dataset& data, const TrainTestSplit& split,
         const Classifier& proto, const PartitionerBuildOptions& build)
      -> Result<std::vector<double>> {
    Dataset base = data;
    FAIRIDX_RETURN_IF_ERROR(base.SetNeighborhoods(base.base_cells()));
    EvalOptions eval_options;
    eval_options.task = build.task;
    eval_options.encoding = build.encoding;
    FAIRIDX_ASSIGN_OR_RETURN(TrainedEvaluation trained,
                             TrainAndEvaluate(base, split, proto,
                                              eval_options));
    return std::move(trained.scores);
  };
  PartitionerContext context(working, out.split, &prototype,
                             ToPartitionerBuildOptions(options),
                             std::move(score_fn));
  FAIRIDX_ASSIGN_OR_RETURN(PartitionerOutput built,
                           partitioner->Build(context));
  out.has_cell_partition = built.has_cell_partition;
  out.partition = std::move(built.partition);
  out.partition_stage_fits = built.model_fits;

  if (out.has_cell_partition) {
    FAIRIDX_RETURN_IF_ERROR(working.SetNeighborhoodsFromCellMap(
        out.partition.partition.cell_to_region()));
  } else {
    FAIRIDX_RETURN_IF_ERROR(working.SetNeighborhoods(working.zip_codes()));
  }
  out.record_neighborhoods = working.neighborhoods();

  EvalOptions eval_options;
  eval_options.task = options.task;
  eval_options.encoding = options.encoding;
  eval_options.reweight_by_neighborhood = built.reweight_by_neighborhood;
  FAIRIDX_ASSIGN_OR_RETURN(
      out.final_model,
      TrainAndEvaluate(working, out.split, prototype, eval_options));
  return out;
}

using Case = std::tuple<PartitionAlgorithm, NeighborhoodEncoding>;

class PipelineDifferentialTest : public ::testing::TestWithParam<Case> {};

TEST_P(PipelineDifferentialTest, MatchesCopyAndTrainAndEvaluateReference) {
  const auto [algorithm, encoding] = GetParam();
  // A 16 x 16 grid keeps one-hot over base cells small (<= 256 columns).
  CityConfig config;
  config.num_records = 700;
  config.seed = 91;
  config.grid_rows = 16;
  config.grid_cols = 16;
  const Dataset dataset = GenerateEdgapCity(config).value();
  const auto prototype =
      MakeClassifier(ClassifierKind::kLogisticRegression);
  PipelineOptions options;
  options.algorithm = algorithm;
  options.encoding = encoding;
  options.height = 4;
  options.num_threads = 2;

  const Result<PipelineRunResult> run =
      RunPipeline(dataset, *prototype, options);
  const Result<PipelineRunResult> reference =
      ReferenceRunPipeline(dataset, *prototype, options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_TRUE(reference.ok()) << reference.status();

  const std::vector<double>& scores = run->final_model.scores;
  const std::vector<double>& expected = reference->final_model.scores;
  ASSERT_EQ(scores.size(), expected.size());
  EXPECT_EQ(std::memcmp(scores.data(), expected.data(),
                        scores.size() * sizeof(double)),
            0);
  const EvaluationResult& eval = run->final_model.eval;
  const EvaluationResult& want = reference->final_model.eval;
  EXPECT_EQ(eval.train_ence, want.train_ence);
  EXPECT_EQ(eval.test_ence, want.test_ence);
  EXPECT_EQ(eval.train_accuracy, want.train_accuracy);
  EXPECT_EQ(eval.test_accuracy, want.test_accuracy);
  EXPECT_EQ(eval.train_miscalibration, want.train_miscalibration);
  EXPECT_EQ(eval.test_miscalibration, want.test_miscalibration);
  EXPECT_EQ(eval.num_neighborhoods, want.num_neighborhoods);
  EXPECT_EQ(eval.feature_importances, want.feature_importances);
  EXPECT_EQ(eval.feature_names, want.feature_names);
  EXPECT_EQ(run->record_neighborhoods, reference->record_neighborhoods);
  EXPECT_EQ(run->has_cell_partition, reference->has_cell_partition);
  EXPECT_EQ(run->partition.partition.cell_to_region(),
            reference->partition.partition.cell_to_region());
  EXPECT_EQ(run->partition_stage_fits, reference->partition_stage_fits);
  EXPECT_EQ(run->split.train_indices, reference->split.train_indices);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndEncodings, PipelineDifferentialTest,
    ::testing::Combine(
        ::testing::Values(PartitionAlgorithm::kFairKdTree,
                          PartitionAlgorithm::kUniformGridReweight,
                          PartitionAlgorithm::kIterativeFairKdTree,
                          PartitionAlgorithm::kZipCodes),
        ::testing::Values(NeighborhoodEncoding::kNumericId,
                          NeighborhoodEncoding::kTargetMean,
                          NeighborhoodEncoding::kOneHot)),
    [](const ::testing::TestParamInfo<Case>& info) {
      const NeighborhoodEncoding encoding = std::get<1>(info.param);
      const char* encoding_name =
          encoding == NeighborhoodEncoding::kNumericId    ? "numeric_id"
          : encoding == NeighborhoodEncoding::kTargetMean ? "target_mean"
                                                          : "one_hot";
      return std::string(PartitionAlgorithmName(std::get<0>(info.param))) +
             "_" + encoding_name;
    });

}  // namespace
}  // namespace fairidx
