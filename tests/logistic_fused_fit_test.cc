// Bit-identity of the one-pass logistic-regression fit. LogisticRegression
// evaluates loss and gradient together in one pass whose per-row terms run
// on the shared pool; these tests pin it bitwise against the two-pass
// descent it replaced (kept below verbatim as the reference), and the
// evaluator itself on pools of 0, the shared count and 7 workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/logistic_regression.h"
#include "ml/standardizer.h"

namespace fairidx {
namespace {

// ---- Reference: the two-pass descent, verbatim. ----

double ReferenceSigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// Weighted negative log-likelihood + L2, averaged over total weight.
double ComputeLoss(const Matrix& Z, const std::vector<int>& y,
                   const std::vector<double>& weights_per_sample,
                   double total_weight, const std::vector<double>& w,
                   double b, double l2) {
  double loss = 0.0;
  for (size_t r = 0; r < Z.rows(); ++r) {
    const double margin = Z.RowDot(r, w) + b;
    // log(1 + exp(-m)) for y=1 and log(1 + exp(m)) for y=0, stably.
    const double z = y[r] == 1 ? margin : -margin;
    const double nll = z > 0 ? std::log1p(std::exp(-z)) : -z +
                                   std::log1p(std::exp(z));
    loss += weights_per_sample[r] * nll;
  }
  loss /= total_weight;
  double penalty = 0.0;
  for (double wj : w) penalty += wj * wj;
  return loss + 0.5 * l2 * penalty;
}

// The gradient loop at the top of each reference iteration, finalized.
void ComputeGradient(const Matrix& Z, const std::vector<int>& y,
                     const std::vector<double>& weights_per_sample,
                     double total_weight, const std::vector<double>& weights_,
                     double intercept_, double l2, std::vector<double>* out,
                     double* out_b) {
  const size_t n = Z.rows();
  const size_t d = Z.cols();
  std::vector<double> grad(d, 0.0);
  double grad_b = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const double p = ReferenceSigmoid(Z.RowDot(r, weights_) + intercept_);
    const double err = weights_per_sample[r] * (p - y[r]);
    const double* row = Z.Row(r);
    for (size_t c = 0; c < d; ++c) grad[c] += err * row[c];
    grad_b += err;
  }
  for (size_t c = 0; c < d; ++c) {
    grad[c] = grad[c] / total_weight + l2 * weights_[c];
  }
  grad_b /= total_weight;
  *out = grad;
  *out_b = grad_b;
}

struct Point {
  std::vector<double> w;
  double b;
};

struct ReferenceFit {
  std::vector<double> weights;
  double intercept = 0.0;
  int iterations = 0;
  std::vector<double> scores;  // PredictScores on the training matrix.
  std::vector<Point> visited;  // Every point the descent evaluated.
};

ReferenceFit FitReference(const Matrix& X, const std::vector<int>& y,
                          const std::vector<double>* sample_weights,
                          const LogisticRegressionOptions& options_) {
  Standardizer standardizer_;
  EXPECT_TRUE(standardizer_.Fit(X, sample_weights).ok());
  const Matrix Z = standardizer_.Transform(X).value();
  ReferenceFit fit;
  std::vector<double>& weights_ = fit.weights;
  double& intercept_ = fit.intercept;
  int& last_fit_iterations_ = fit.iterations;

  const size_t n = Z.rows();
  const size_t d = Z.cols();
  std::vector<double> weights_per_sample(n, 1.0);
  if (sample_weights != nullptr) weights_per_sample = *sample_weights;
  double total_weight = 0.0;
  for (double w : weights_per_sample) total_weight += w;

  weights_.assign(d, 0.0);
  intercept_ = 0.0;
  double step = options_.learning_rate;
  double prev_loss = ComputeLoss(Z, y, weights_per_sample, total_weight,
                                 weights_, intercept_, options_.l2);
  fit.visited.push_back({weights_, intercept_});

  std::vector<double> grad(d, 0.0);
  last_fit_iterations_ = 0;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_b = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double p = ReferenceSigmoid(Z.RowDot(r, weights_) + intercept_);
      const double err = weights_per_sample[r] * (p - y[r]);
      const double* row = Z.Row(r);
      for (size_t c = 0; c < d; ++c) grad[c] += err * row[c];
      grad_b += err;
    }
    double max_grad = std::abs(grad_b / total_weight);
    for (size_t c = 0; c < d; ++c) {
      grad[c] = grad[c] / total_weight + options_.l2 * weights_[c];
      max_grad = std::max(max_grad, std::abs(grad[c]));
    }
    grad_b /= total_weight;
    ++last_fit_iterations_;
    if (max_grad < options_.gradient_tolerance) break;

    // Backtracking step: retry with halved step while the loss increases.
    const std::vector<double> old_weights = weights_;
    const double old_intercept = intercept_;
    while (true) {
      for (size_t c = 0; c < d; ++c) {
        weights_[c] = old_weights[c] - step * grad[c];
      }
      intercept_ = old_intercept - step * grad_b;
      const double loss = ComputeLoss(Z, y, weights_per_sample, total_weight,
                                      weights_, intercept_, options_.l2);
      fit.visited.push_back({weights_, intercept_});
      if (loss <= prev_loss + 1e-12 || step < 1e-8) {
        prev_loss = loss;
        // Gentle step growth recovers speed after a backtrack.
        step = std::min(step * 1.05, options_.learning_rate * 4.0);
        break;
      }
      step *= 0.5;
    }
  }
  fit.scores.resize(n);
  for (size_t r = 0; r < n; ++r) {
    fit.scores[r] = ReferenceSigmoid(Z.RowDot(r, weights_) + intercept_);
  }
  return fit;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Sigmoid and the evaluator share one formula over exp(-|z|); it must
// equal the two-branch original bit for bit.
TEST(SigmoidTest, MatchesTwoBranchReferenceBitwise) {
  std::vector<double> zs = {0.0, -0.0, 1e-310, -1e-310, 1e-20, -1e-20,
                            0.5, -0.5, 36.0, -36.0, 700.0, -700.0,
                            800.0, -800.0, 1e300, -1e300};
  Rng rng(99);
  for (int i = 0; i < 100000; ++i) zs.push_back(rng.Gaussian(0.0, 8.0));
  for (const double z : zs) {
    EXPECT_TRUE(BitwiseEqual(Sigmoid(z), ReferenceSigmoid(z))) << z;
  }
}

// ---- Cases. ----

struct Case {
  std::string name;
  size_t rows;
  bool one_hot;   // 40 one-hot columns plus 2 numeric ones, else 6 numeric.
  int max_iterations;
  double learning_rate = 0.5;  // Above about 1, trial steps get rejected.
};

// Keeps the case's printed form (and so the test's listed name) stable.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

struct Data {
  Matrix X;
  std::vector<int> y;
  std::vector<double> weights;
};

Data MakeData(const Case& c, uint64_t seed) {
  Rng rng(seed);
  constexpr size_t kLevels = 40;
  const size_t d = c.one_hot ? kLevels + 2 : 6;
  Data data;
  data.X = Matrix(c.rows, d);
  data.y.resize(c.rows);
  data.weights.resize(c.rows);
  for (size_t r = 0; r < c.rows; ++r) {
    double signal = 0.0;
    if (c.one_hot) {
      const size_t level = rng.NextBounded(kLevels);
      data.X(r, level) = 1.0;
      signal += (static_cast<double>(level) - kLevels / 2.0) / 10.0;
      for (size_t k = kLevels; k < d; ++k) data.X(r, k) = rng.Gaussian(0, 1);
      signal += data.X(r, kLevels);
    } else {
      for (size_t k = 0; k < d; ++k) {
        data.X(r, k) = rng.Gaussian(static_cast<double>(k), 1.0 + k);
        signal += (k % 2 == 0 ? 0.8 : -0.5) * (data.X(r, k) - k) / (1.0 + k);
      }
    }
    data.y[r] = rng.NextDouble() < Sigmoid(signal) ? 1 : 0;
    data.weights[r] = 0.25 + 2.0 * rng.NextDouble();
  }
  return data;
}

const Case kCases[] = {
    {"one_row", 1, false, 500},
    {"below_chunk", internal::kLogisticRowChunk - 1, false, 500},
    {"chunk_plus_one", internal::kLogisticRowChunk + 1, false, 500},
    {"fifty_thousand", 50000, false, 120},  // Capped to keep TSan quick.
    {"one_hot", 3000, true, 500},
    {"backtracking", 5000, false, 500, 40.0},
};

LogisticRegressionOptions OptionsFor(const Case& c) {
  LogisticRegressionOptions options;
  options.max_iterations = c.max_iterations;
  options.learning_rate = c.learning_rate;
  return options;
}

class LogisticFusedFitTest : public ::testing::TestWithParam<Case> {};

TEST_P(LogisticFusedFitTest, FitMatchesTwoPassReferenceBitwise) {
  const Case& c = GetParam();
  const Data data = MakeData(c, 1000 + c.rows);
  const LogisticRegressionOptions options = OptionsFor(c);
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unweighted");
    const std::vector<double>* weights = weighted ? &data.weights : nullptr;
    const ReferenceFit want = FitReference(data.X, data.y, weights, options);
    if (c.learning_rate > 1.0) {
      // Some trial points were rejected, so the halving path is covered.
      EXPECT_GT(want.visited.size(), static_cast<size_t>(want.iterations) + 1);
    }
    LogisticRegression model(options);
    ASSERT_TRUE(model.Fit(data.X, data.y, weights).ok());
    EXPECT_TRUE(BitwiseEqual(model.weights(), want.weights));
    EXPECT_TRUE(BitwiseEqual(model.intercept(), want.intercept));
    EXPECT_EQ(model.last_fit_iterations(), want.iterations);
    EXPECT_TRUE(BitwiseEqual(model.PredictScores(data.X).value(), want.scores));
  }
}

TEST_P(LogisticFusedFitTest, EvaluatorMatchesReferenceOnEveryPool) {
  const Case& c = GetParam();
  const Data data = MakeData(c, 2000 + c.rows);
  const LogisticRegressionOptions options = OptionsFor(c);
  const ReferenceFit trajectory =
      FitReference(data.X, data.y, &data.weights, options);
  Standardizer standardizer;
  ASSERT_TRUE(standardizer.Fit(data.X, &data.weights).ok());
  const Matrix Z = standardizer.Transform(data.X).value();
  double total_weight = 0.0;
  for (double w : data.weights) total_weight += w;

  ThreadPool serial(0);
  ThreadPool seven(7);
  internal::LogisticObjective objective(Z, data.y, data.weights, options.l2);
  // About 24 points evenly spaced along the descent, the last included.
  const size_t points = trajectory.visited.size();
  const size_t stride = std::max<size_t>(1, points / 24);
  std::vector<size_t> picks;
  for (size_t i = 0; i < points; i += stride) picks.push_back(i);
  if (picks.back() != points - 1) picks.push_back(points - 1);
  for (const size_t i : picks) {
    const Point& at = trajectory.visited[i];
    SCOPED_TRACE("point " + std::to_string(i));
    std::vector<double> want_grad;
    double want_grad_b = 0.0;
    ComputeGradient(Z, data.y, data.weights, total_weight, at.w, at.b,
                    options.l2, &want_grad, &want_grad_b);
    const double want_loss = ComputeLoss(Z, data.y, data.weights,
                                         total_weight, at.w, at.b, options.l2);
    for (ThreadPool* pool : {&serial, &ThreadPool::Shared(), &seven}) {
      SCOPED_TRACE("workers " + std::to_string(pool->num_workers()));
      std::vector<double> grad;
      double grad_b = 0.0;
      const double loss = objective.Evaluate(at.w, at.b, *pool, &grad,
                                             &grad_b);
      EXPECT_TRUE(BitwiseEqual(loss, want_loss));
      EXPECT_TRUE(BitwiseEqual(grad, want_grad));
      EXPECT_TRUE(BitwiseEqual(grad_b, want_grad_b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LogisticFusedFitTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace fairidx
