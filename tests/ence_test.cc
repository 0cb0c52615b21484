// Tests for ENCE (Definition 3).

#include "fairness/ence.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fairidx {
namespace {

TEST(EnceTest, SingleNeighborhoodEqualsOverallMiscalibration) {
  const std::vector<double> scores = {0.2, 0.8, 0.6};
  const std::vector<int> labels = {1, 1, 0};
  const std::vector<int> neighborhoods = {0, 0, 0};
  // overall e = 1.6/3, o = 2/3 -> |o - e| = 0.4/3.
  EXPECT_NEAR(Ence(scores, labels, neighborhoods).value(), 0.4 / 3.0,
              1e-12);
}

TEST(EnceTest, HandComputedTwoNeighborhoods) {
  // N0: records {0,1}: e = 0.5, o = 1.0 -> 0.5, weight 0.5.
  // N1: records {2,3}: e = 0.5, o = 0.0 -> 0.5, weight 0.5.
  const std::vector<double> scores = {0.4, 0.6, 0.4, 0.6};
  const std::vector<int> labels = {1, 1, 0, 0};
  const std::vector<int> neighborhoods = {0, 0, 1, 1};
  EXPECT_NEAR(Ence(scores, labels, neighborhoods).value(), 0.5, 1e-12);
}

TEST(EnceTest, PerfectPerNeighborhoodCalibrationGivesZero) {
  const std::vector<double> scores = {0.5, 0.5, 1.0, 1.0};
  const std::vector<int> labels = {1, 0, 1, 1};
  const std::vector<int> neighborhoods = {0, 0, 1, 1};
  EXPECT_NEAR(Ence(scores, labels, neighborhoods).value(), 0.0, 1e-12);
}

TEST(EnceTest, WeightsAreNeighborhoodPopulations) {
  // N0 has 3 records (weight .75), N1 has 1 (weight .25).
  const std::vector<double> scores = {0.0, 0.0, 0.0, 1.0};
  const std::vector<int> labels = {1, 1, 1, 0};
  const std::vector<int> neighborhoods = {0, 0, 0, 1};
  EXPECT_NEAR(Ence(scores, labels, neighborhoods).value(),
              0.75 * 1.0 + 0.25 * 1.0, 1e-12);
}

TEST(EnceTest, RejectsBadInputs) {
  EXPECT_FALSE(Ence({}, {}, {}).ok());
  EXPECT_FALSE(Ence({0.5}, {1}, {0, 1}).ok());
}

TEST(EnceBreakdownTest, WeightedSumEqualsEnce) {
  const std::vector<double> scores = {0.3, 0.9, 0.5, 0.1, 0.7};
  const std::vector<int> labels = {0, 1, 1, 0, 1};
  const std::vector<int> neighborhoods = {2, 2, 7, 7, 7};
  const auto breakdown = EnceBreakdown(scores, labels, neighborhoods);
  ASSERT_TRUE(breakdown.ok());
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  for (const auto& item : *breakdown) {
    weighted_sum += item.weight * item.stats.AbsMiscalibration();
    weight_total += item.weight;
  }
  EXPECT_NEAR(weight_total, 1.0, 1e-12);
  EXPECT_NEAR(weighted_sum, Ence(scores, labels, neighborhoods).value(),
              1e-12);
}

TEST(EnceSubsetTest, MatchesManualExtraction) {
  const std::vector<double> scores = {0.2, 0.9, 0.4, 0.8};
  const std::vector<int> labels = {0, 1, 1, 0};
  const std::vector<int> neighborhoods = {0, 0, 1, 1};
  const double subset =
      EnceSubset(scores, labels, neighborhoods, {0, 3}).value();
  const double manual = Ence({0.2, 0.8}, {0, 0}, {0, 1}).value();
  EXPECT_DOUBLE_EQ(subset, manual);
}

TEST(EnceSubsetTest, RejectsBadIndices) {
  EXPECT_FALSE(EnceSubset({0.5}, {1}, {0}, {}).ok());
  EXPECT_FALSE(EnceSubset({0.5}, {1}, {0}, {9}).ok());
}

TEST(EnceSubsetTest, RejectsSizeMismatch) {
  // An index valid for `scores` must not reach past `labels` or
  // `neighborhoods`.
  const auto short_labels = EnceSubset({0.5, 0.5, 0.5}, {1}, {0}, {2});
  ASSERT_FALSE(short_labels.ok());
  EXPECT_EQ(short_labels.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(EnceSubset({0.5, 0.5}, {1, 0}, {0}, {1}).ok());
  EXPECT_FALSE(EnceSubset({0.5}, {1, 0}, {0, 0}, {0}).ok());
}

TEST(EnceSubsetTest, RepeatedIndexCountsTwice) {
  const std::vector<double> scores = {0.2, 0.9, 0.4};
  const std::vector<int> labels = {0, 1, 1};
  const std::vector<int> neighborhoods = {5, -5, 5};
  EXPECT_EQ(EnceSubset(scores, labels, neighborhoods, {2, 0, 2, 1}).value(),
            Ence({0.4, 0.2, 0.4, 0.9}, {1, 0, 1, 1}, {5, 5, 5, -5}).value());
}

TEST(EnceTest, InvariantToNeighborhoodRelabeling) {
  const std::vector<double> scores = {0.3, 0.9, 0.5, 0.1};
  const std::vector<int> labels = {0, 1, 1, 0};
  const double a = Ence(scores, labels, {0, 0, 1, 1}).value();
  const double b = Ence(scores, labels, {42, 42, -7, -7}).value();
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace fairidx
