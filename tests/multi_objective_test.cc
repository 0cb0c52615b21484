// Tests for the Multi-Objective Fair KD-tree (Section 4.3).

#include "core/multi_objective.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "data/edgap_synthetic.h"
#include "ml/logistic_regression.h"

namespace fairidx {
namespace {

struct Fixture {
  Dataset dataset;
  TrainTestSplit split;
};

Fixture MakeFixture(int n = 400, uint64_t seed = 21) {
  CityConfig config;
  config.num_records = n;
  config.seed = seed;
  config.grid_rows = 32;
  config.grid_cols = 32;
  Dataset dataset = GenerateEdgapCity(config).value();
  Rng rng(seed + 1);
  TrainTestSplit split =
      MakeStratifiedSplit(dataset.labels(0), 0.25, rng).value();
  return Fixture{std::move(dataset), std::move(split)};
}

TEST(MultiObjectiveTest, ResidualsAreAlphaCombinations) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;

  MultiObjectiveOptions only_act;
  only_act.tasks = {kEdgapTaskAct};
  only_act.alphas = {1.0};
  const auto act_residuals = ComputeMultiObjectiveResiduals(
      f.dataset, f.split, prototype, only_act);
  ASSERT_TRUE(act_residuals.ok());

  MultiObjectiveOptions only_employment;
  only_employment.tasks = {kEdgapTaskEmployment};
  only_employment.alphas = {1.0};
  const auto employment_residuals = ComputeMultiObjectiveResiduals(
      f.dataset, f.split, prototype, only_employment);
  ASSERT_TRUE(employment_residuals.ok());

  MultiObjectiveOptions both;
  both.tasks = {kEdgapTaskAct, kEdgapTaskEmployment};
  both.alphas = {0.5, 0.5};
  const auto combined = ComputeMultiObjectiveResiduals(
      f.dataset, f.split, prototype, both);
  ASSERT_TRUE(combined.ok());

  for (size_t i = 0; i < combined->size(); ++i) {
    EXPECT_NEAR((*combined)[i],
                0.5 * (*act_residuals)[i] +
                    0.5 * (*employment_residuals)[i],
                1e-9);
  }
}

TEST(MultiObjectiveTest, ResidualsBoundedByAlphaSum) {
  // Each per-task residual is in [-1, 1]; alphas sum to 1.
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  const auto residuals = ComputeMultiObjectiveResiduals(
      f.dataset, f.split, prototype, MultiObjectiveOptions{});
  ASSERT_TRUE(residuals.ok());
  for (double r : *residuals) {
    EXPECT_GE(r, -1.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(MultiObjectiveTest, DefaultsBalanceAllTasksEqually) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  MultiObjectiveOptions defaults;
  const auto explicit_options = MultiObjectiveOptions{
      .height = 6,
      .tasks = {0, 1},
      .alphas = {0.5, 0.5},
  };
  const auto a = ComputeMultiObjectiveResiduals(f.dataset, f.split,
                                                prototype, defaults);
  const auto b = ComputeMultiObjectiveResiduals(f.dataset, f.split,
                                                prototype, explicit_options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR((*a)[i], (*b)[i], 1e-12);
  }
}

TEST(MultiObjectiveTest, BuildProducesRequestedLeafCount) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  MultiObjectiveOptions options;
  options.height = 4;
  const auto result = BuildMultiObjectiveFairKdTree(f.dataset, f.split,
                                                    prototype, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.partition.num_regions(), 16);
  EXPECT_EQ(result->residuals.size(), f.dataset.num_records());
}

TEST(MultiObjectiveTest, Eq9WeightingChangesThePartition) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  MultiObjectiveOptions eq13;
  eq13.height = 6;
  MultiObjectiveOptions eq9 = eq13;
  eq9.use_eq9_weighting = true;
  const auto a =
      BuildMultiObjectiveFairKdTree(f.dataset, f.split, prototype, eq13);
  const auto b =
      BuildMultiObjectiveFairKdTree(f.dataset, f.split, prototype, eq9);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The two printed forms of the objective genuinely differ.
  EXPECT_NE(a->partition.partition.cell_to_region(),
            b->partition.partition.cell_to_region());
}

TEST(MultiObjectiveTest, ValidatesAlphas) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  MultiObjectiveOptions options;
  options.tasks = {0, 1};
  options.alphas = {0.9, 0.9};  // Sums to 1.8.
  EXPECT_FALSE(
      BuildMultiObjectiveFairKdTree(f.dataset, f.split, prototype, options)
          .ok());
  options.alphas = {1.5, -0.5};  // Out of range.
  EXPECT_FALSE(
      BuildMultiObjectiveFairKdTree(f.dataset, f.split, prototype, options)
          .ok());
  // Sums to 1, but |v_tot| could reach 5, past what the aggregates accept.
  options.alphas = {3.0, -2.0};
  const Status status =
      BuildMultiObjectiveFairKdTree(f.dataset, f.split, prototype, options)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("|alphas|"), std::string::npos) << status;
  options.alphas = {std::nan(""), 1.0};  // Passes every other check.
  EXPECT_NE(
      BuildMultiObjectiveFairKdTree(f.dataset, f.split, prototype, options)
          .status()
          .message()
          .find("|alphas|"),
      std::string::npos);
  options.alphas = {1.0};  // Size mismatch.
  EXPECT_FALSE(
      BuildMultiObjectiveFairKdTree(f.dataset, f.split, prototype, options)
          .ok());
}

TEST(MultiObjectiveTest, ValidatesTasks) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  MultiObjectiveOptions options;
  options.tasks = {0, 5};
  EXPECT_FALSE(
      BuildMultiObjectiveFairKdTree(f.dataset, f.split, prototype, options)
          .ok());
}

TEST(MultiObjectiveTest, Deterministic) {
  Fixture f = MakeFixture();
  LogisticRegression prototype;
  MultiObjectiveOptions options;
  options.height = 5;
  const auto a = BuildMultiObjectiveFairKdTree(f.dataset, f.split,
                                               prototype, options);
  const auto b = BuildMultiObjectiveFairKdTree(f.dataset, f.split,
                                               prototype, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->partition.partition.cell_to_region(),
            b->partition.partition.cell_to_region());
}

}  // namespace
}  // namespace fairidx
