// Parameterized contract suite: every Classifier implementation must obey
// the interface's documented behaviour (validation, score range,
// determinism, clone semantics, refit, error paths). One suite, four
// model families.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "common/rng.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"
#include "ml/fair_logistic_regression.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"

namespace fairidx {
namespace {

enum class ModelKind { kLr, kTree, kNb, kFairLr };

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLr:
      return "logistic_regression";
    case ModelKind::kTree:
      return "decision_tree";
    case ModelKind::kNb:
      return "naive_bayes";
    case ModelKind::kFairLr:
      return "fair_logistic_regression";
  }
  return "unknown";
}

std::unique_ptr<Classifier> Make(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLr:
      return std::make_unique<LogisticRegression>();
    case ModelKind::kTree:
      return std::make_unique<DecisionTree>();
    case ModelKind::kNb:
      return std::make_unique<GaussianNaiveBayes>();
    case ModelKind::kFairLr:
      return std::make_unique<FairLogisticRegression>();
  }
  return nullptr;
}

bool SupportsSampleWeights(ModelKind kind) {
  return kind != ModelKind::kFairLr;
}

struct TrainingData {
  Matrix X;
  std::vector<int> y;
};

TrainingData MakeData(int n = 200, uint64_t seed = 77) {
  Rng rng(seed);
  TrainingData data;
  data.X = Matrix(static_cast<size_t>(n), 3);
  data.y.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const size_t row = static_cast<size_t>(i);
    data.X(row, 0) = rng.Uniform(-2, 2);
    data.X(row, 1) = rng.Uniform(-2, 2);
    data.X(row, 2) = static_cast<double>(i % 4);  // Group-ish column.
    data.y[row] =
        data.X(row, 0) + 0.5 * data.X(row, 1) + rng.Gaussian(0, 0.3) > 0
            ? 1
            : 0;
  }
  return data;
}

class ClassifierContractTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ClassifierContractTest, PredictBeforeFitIsFailedPrecondition) {
  const auto model = Make(GetParam());
  EXPECT_FALSE(model->is_fitted());
  const auto result = model->PredictScores(Matrix(1, 3, {0, 0, 0}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_P(ClassifierContractTest, RejectsMalformedInputs) {
  const auto model = Make(GetParam());
  EXPECT_FALSE(model->Fit(Matrix(), {}).ok());
  EXPECT_FALSE(model->Fit(Matrix(2, 1, {1, 2}), {1}).ok());
  EXPECT_FALSE(model->Fit(Matrix(2, 1, {1, 2}), {1, 2}).ok());
}

TEST_P(ClassifierContractTest, ScoresInUnitIntervalForAllRecords) {
  const auto model = Make(GetParam());
  const TrainingData data = MakeData();
  ASSERT_TRUE(model->Fit(data.X, data.y).ok());
  EXPECT_TRUE(model->is_fitted());
  const auto scores = model->PredictScores(data.X);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), data.X.rows());
  for (double s : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_P(ClassifierContractTest, LearnsTheSignal) {
  const auto model = Make(GetParam());
  const TrainingData data = MakeData(400);
  ASSERT_TRUE(model->Fit(data.X, data.y).ok());
  const auto scores = model->PredictScores(data.X);
  ASSERT_TRUE(scores.ok());
  int correct = 0;
  for (size_t i = 0; i < data.y.size(); ++i) {
    correct += ((*scores)[i] >= 0.5) == (data.y[i] == 1) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(correct) / data.y.size(), 0.75)
      << ModelKindName(GetParam());
}

TEST_P(ClassifierContractTest, DeterministicFits) {
  const TrainingData data = MakeData();
  const auto a = Make(GetParam());
  const auto b = Make(GetParam());
  ASSERT_TRUE(a->Fit(data.X, data.y).ok());
  ASSERT_TRUE(b->Fit(data.X, data.y).ok());
  EXPECT_EQ(a->PredictScores(data.X).value(),
            b->PredictScores(data.X).value());
}

TEST_P(ClassifierContractTest, CloneIsUnfittedAndIndependent) {
  const auto model = Make(GetParam());
  const TrainingData data = MakeData();
  ASSERT_TRUE(model->Fit(data.X, data.y).ok());
  const auto clone = model->Clone();
  EXPECT_FALSE(clone->is_fitted());
  EXPECT_EQ(clone->name(), model->name());
  // Fitting the clone does not disturb the original.
  const auto before = model->PredictScores(data.X).value();
  std::vector<int> flipped(data.y.size());
  for (size_t i = 0; i < data.y.size(); ++i) flipped[i] = 1 - data.y[i];
  ASSERT_TRUE(clone->Fit(data.X, flipped).ok());
  EXPECT_EQ(model->PredictScores(data.X).value(), before);
}

TEST_P(ClassifierContractTest, RefitReplacesTheModel) {
  const auto model = Make(GetParam());
  const TrainingData data = MakeData();
  ASSERT_TRUE(model->Fit(data.X, data.y).ok());
  const auto original = model->PredictScores(data.X).value();
  std::vector<int> flipped(data.y.size());
  for (size_t i = 0; i < data.y.size(); ++i) flipped[i] = 1 - data.y[i];
  ASSERT_TRUE(model->Fit(data.X, flipped).ok());
  const auto refit = model->PredictScores(data.X).value();
  EXPECT_NE(original, refit);
}

TEST_P(ClassifierContractTest, ImportancesMatchFeatureCountAndNormalise) {
  const auto model = Make(GetParam());
  const TrainingData data = MakeData();
  ASSERT_TRUE(model->Fit(data.X, data.y).ok());
  const std::vector<double> importances = model->FeatureImportances();
  ASSERT_EQ(importances.size(), data.X.cols());
  double total = 0.0;
  for (double v : importances) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_TRUE(total == 0.0 || std::abs(total - 1.0) < 1e-9);
}

TEST_P(ClassifierContractTest, SampleWeightBehaviourIsDocumented) {
  const auto model = Make(GetParam());
  const TrainingData data = MakeData(50);
  const std::vector<double> weights(data.y.size(), 1.0);
  const Status status = model->Fit(data.X, data.y, &weights);
  if (SupportsSampleWeights(GetParam())) {
    EXPECT_TRUE(status.ok()) << status;
  } else {
    // FairLogisticRegression declares weights unsupported.
    EXPECT_EQ(status.code(), StatusCode::kUnimplemented);
  }
  // Invalid weights must always be rejected up front.
  const std::vector<double> negative(data.y.size(), -1.0);
  EXPECT_FALSE(model->Fit(data.X, data.y, &negative).ok());
}

// One NaN or infinity among the features or weights used to slip through
// validation and fit a model whose every score was NaN.
TEST_P(ClassifierContractTest, RejectsNonFiniteInputsNamingTheRow) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const TrainingData data = MakeData(50);
  for (const double bad : {kNan, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    TrainingData poisoned = data;
    poisoned.X(17, 1) = bad;
    const auto model = Make(GetParam());
    const Status status = model->Fit(poisoned.X, poisoned.y);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("row 17"), std::string::npos) << status;
    EXPECT_EQ(status.message().find('\n'), std::string::npos) << status;
    EXPECT_FALSE(model->is_fitted());
  }
  for (const double bad : {kNan, kInf}) {
    SCOPED_TRACE(bad);
    std::vector<double> weights(data.y.size(), 1.0);
    weights[23] = bad;
    const auto model = Make(GetParam());
    const Status status = model->Fit(data.X, data.y, &weights);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("row 23"), std::string::npos) << status;
    EXPECT_FALSE(model->is_fitted());
  }
  // Finite weights whose sum overflows poison the fit the same way.
  const std::vector<double> huge(data.y.size(), 1e308);
  const auto model = Make(GetParam());
  EXPECT_EQ(model->Fit(data.X, data.y, &huge).code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ClassifierContractTest,
                         ::testing::Values(ModelKind::kLr, ModelKind::kTree,
                                           ModelKind::kNb,
                                           ModelKind::kFairLr),
                         [](const ::testing::TestParamInfo<ModelKind>& info) {
                           return ModelKindName(info.param);
                         });

}  // namespace
}  // namespace fairidx
