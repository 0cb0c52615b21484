// Tests for the shared train-and-evaluate step.

#include "core/evaluation.h"

#include <gtest/gtest.h>

#include "data/edgap_synthetic.h"
#include "ml/logistic_regression.h"

namespace fairidx {
namespace {

struct Fixture {
  Dataset dataset;
  TrainTestSplit split;
};

Fixture MakeFixture(int n = 300, uint64_t seed = 5) {
  CityConfig config;
  config.num_records = n;
  config.seed = seed;
  Dataset dataset = GenerateEdgapCity(config).value();
  Rng rng(seed + 1);
  TrainTestSplit split =
      MakeStratifiedSplit(dataset.labels(0), 0.25, rng).value();
  return Fixture{std::move(dataset), std::move(split)};
}

TEST(TrainAndEvaluateTest, ProducesScoresForAllRecords) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  const auto result =
      TrainAndEvaluate(f.dataset, f.split, prototype, EvalOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->scores.size(), f.dataset.num_records());
  for (double s : result->scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(TrainAndEvaluateTest, IndicatorsAreReasonable) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  const auto result =
      TrainAndEvaluate(f.dataset, f.split, prototype, EvalOptions{});
  ASSERT_TRUE(result.ok());
  const EvaluationResult& eval = result->eval;
  // The synthetic city is learnable: well above the base rate.
  EXPECT_GT(eval.train_accuracy, 0.65);
  EXPECT_GT(eval.test_accuracy, 0.6);
  EXPECT_GE(eval.train_ence, 0.0);
  EXPECT_GE(eval.test_ence, eval.test_miscalibration - 1e-9);
  EXPECT_GT(eval.num_neighborhoods, 1);
}

TEST(TrainAndEvaluateTest, FeatureNamesIncludeNeighborhood) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  const auto result =
      TrainAndEvaluate(f.dataset, f.split, prototype, EvalOptions{});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->eval.feature_names.empty());
  EXPECT_EQ(result->eval.feature_names.back(), "neighborhood");
  EXPECT_EQ(result->eval.feature_importances.size(),
            result->eval.feature_names.size());
}

TEST(TrainAndEvaluateTest, TrainEnceReflectsNeighborhoodGranularity) {
  // Coarser neighborhoods -> lower train ENCE (Theorem 2's direction).
  Fixture f = MakeFixture();
  LogisticRegression prototype;

  Dataset coarse = f.dataset;
  coarse.SetSingleNeighborhood();
  const auto coarse_result =
      TrainAndEvaluate(coarse, f.split, prototype, EvalOptions{});
  ASSERT_TRUE(coarse_result.ok());

  const auto fine_result =
      TrainAndEvaluate(f.dataset, f.split, prototype, EvalOptions{});
  ASSERT_TRUE(fine_result.ok());

  EXPECT_LE(coarse_result->eval.train_ence,
            fine_result->eval.train_ence + 0.05);
}

TEST(TrainAndEvaluateTest, ReweightingChangesTheModel) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  const auto plain =
      TrainAndEvaluate(f.dataset, f.split, prototype, EvalOptions{});
  EvalOptions reweighted_options;
  reweighted_options.reweight_by_neighborhood = true;
  const auto reweighted =
      TrainAndEvaluate(f.dataset, f.split, prototype, reweighted_options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(reweighted.ok());
  EXPECT_NE(plain->scores, reweighted->scores);
}

TEST(TrainAndEvaluateTest, RejectsBadOptions) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  EvalOptions options;
  options.task = 7;
  EXPECT_FALSE(TrainAndEvaluate(f.dataset, f.split, prototype, options).ok());

  TrainTestSplit empty_split;
  EXPECT_FALSE(
      TrainAndEvaluate(f.dataset, empty_split, prototype, EvalOptions{})
          .ok());
}

TEST(TrainAndEvaluateTest, RejectsOutOfRangeSplitIndices) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  for (bool train_side : {true, false}) {
    TrainTestSplit split = f.split;
    (train_side ? split.train_indices : split.test_indices)
        .push_back(f.dataset.num_records());
    const auto result =
        TrainAndEvaluate(f.dataset, split, prototype, EvalOptions{});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(TrainAndEvaluateTest, DeterministicForFixedInputs) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  const auto a =
      TrainAndEvaluate(f.dataset, f.split, prototype, EvalOptions{});
  const auto b =
      TrainAndEvaluate(f.dataset, f.split, prototype, EvalOptions{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->scores, b->scores);
  EXPECT_EQ(a->eval.train_ence, b->eval.train_ence);
}

TEST(TrainAndEvaluateTest, SecondTaskUsesItsLabels) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  EvalOptions options;
  options.task = kEdgapTaskEmployment;
  const auto result =
      TrainAndEvaluate(f.dataset, f.split, prototype, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->eval.train_accuracy, 0.6);
}

}  // namespace
}  // namespace fairidx
