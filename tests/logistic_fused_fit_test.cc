// Convergence and determinism of the Newton logistic-regression fit.
// LogisticRegression minimises its objective by damped Newton, one fused
// pass (loss, gradient and Hessian) per iteration on the shared pool.
// These tests pin the fit against the gradient descent it replaced, kept
// below as a test-only reference with its own learning rate: the loss is
// no higher than the default descent's, the weights are within 1e-5 of a
// tightly converged descent, few iterations suffice, and the bits are the
// same on every pool. The evaluator is pinned bitwise against a naive
// chunk-ordered loop, and its Hessian against a naive per-row loop.

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

using internal::kLogisticRowChunk;

// ---- Reference: naive loops and the gradient descent. ----

double ReferenceSigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// Weighted negative log-likelihood + L2, averaged over total weight. Each
// chunk of kLogisticRowChunk rows is summed on its own, then the chunk
// sums in order: the association the evaluator documents.
double ComputeLoss(const Matrix& Z, const std::vector<int>& y,
                   const std::vector<double>& weights_per_sample,
                   double total_weight, const std::vector<double>& w,
                   double b, double l2) {
  double loss = 0.0;
  for (size_t begin = 0; begin < Z.rows(); begin += kLogisticRowChunk) {
    double chunk = 0.0;
    for (size_t r = begin; r < std::min(Z.rows(), begin + kLogisticRowChunk);
         ++r) {
      const double margin = Z.RowDot(r, w) + b;
      // log(1 + exp(-m)) for y=1 and log(1 + exp(m)) for y=0, stably.
      const double z = y[r] == 1 ? margin : -margin;
      const double nll = z > 0 ? std::log1p(std::exp(-z)) : -z +
                                     std::log1p(std::exp(z));
      chunk += weights_per_sample[r] * nll;
    }
    loss += chunk;
  }
  loss /= total_weight;
  double penalty = 0.0;
  for (double wj : w) penalty += wj * wj;
  return loss + 0.5 * l2 * penalty;
}

// The loss's gradient, chunk-summed like ComputeLoss.
void ComputeGradient(const Matrix& Z, const std::vector<int>& y,
                     const std::vector<double>& weights_per_sample,
                     double total_weight, const std::vector<double>& w,
                     double b, double l2, std::vector<double>* out,
                     double* out_b) {
  const size_t n = Z.rows();
  const size_t d = Z.cols();
  std::vector<double> grad(d, 0.0);
  double grad_b = 0.0;
  for (size_t begin = 0; begin < n; begin += kLogisticRowChunk) {
    std::vector<double> chunk(d, 0.0);
    double chunk_b = 0.0;
    for (size_t r = begin; r < std::min(n, begin + kLogisticRowChunk); ++r) {
      const double p = ReferenceSigmoid(Z.RowDot(r, w) + b);
      const double err = weights_per_sample[r] * (p - y[r]);
      const double* row = Z.Row(r);
      for (size_t c = 0; c < d; ++c) chunk[c] += err * row[c];
      chunk_b += err;
    }
    for (size_t c = 0; c < d; ++c) grad[c] += chunk[c];
    grad_b += chunk_b;
  }
  for (size_t c = 0; c < d; ++c) {
    grad[c] = grad[c] / total_weight + l2 * w[c];
  }
  *out = grad;
  *out_b = grad_b / total_weight;
}

// The objective's (d+1) x (d+1) Hessian, one row at a time over every
// entry, in row order.
std::vector<double> NaiveHessian(const Matrix& Z,
                                 const std::vector<double>& weights_per_sample,
                                 double total_weight,
                                 const std::vector<double>& w, double b,
                                 double l2) {
  const size_t d = Z.cols();
  const size_t k = d + 1;
  std::vector<double> h(k * k, 0.0);
  std::vector<double> x(k, 1.0);
  for (size_t r = 0; r < Z.rows(); ++r) {
    const double p = ReferenceSigmoid(Z.RowDot(r, w) + b);
    const double curvature = weights_per_sample[r] * p * (1.0 - p);
    for (size_t c = 0; c < d; ++c) x[c] = Z(r, c);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) h[i * k + j] += curvature * x[i] * x[j];
    }
  }
  for (double& v : h) v /= total_weight;
  for (size_t c = 0; c < d; ++c) h[c * k + c] += l2;
  return h;
}

struct DescentOptions {
  double learning_rate = 0.5;  // Above about 1, trial steps get rejected.
  int max_iterations = 500;
  double gradient_tolerance = 1e-6;
  double l2 = 1e-3;
};

struct Point {
  std::vector<double> w;
  double b;
};

struct ReferenceFit {
  std::vector<double> weights;
  double intercept = 0.0;
  double loss = 0.0;
  int iterations = 0;
  std::vector<Point> visited;  // Every point the descent evaluated.
};

// Full-batch gradient descent with step halving and gentle step growth:
// the optimiser LogisticRegression ran before Newton, on the standardized
// matrix.
ReferenceFit FitDescent(const Matrix& Z, const std::vector<int>& y,
                        const std::vector<double>& weights_per_sample,
                        const DescentOptions& options) {
  const size_t d = Z.cols();
  double total_weight = 0.0;
  for (double w : weights_per_sample) total_weight += w;

  ReferenceFit fit;
  fit.weights.assign(d, 0.0);
  double step = options.learning_rate;
  fit.loss = ComputeLoss(Z, y, weights_per_sample, total_weight, fit.weights,
                         fit.intercept, options.l2);
  fit.visited.push_back({fit.weights, fit.intercept});

  std::vector<double> grad;
  double grad_b = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ComputeGradient(Z, y, weights_per_sample, total_weight, fit.weights,
                    fit.intercept, options.l2, &grad, &grad_b);
    double max_grad = std::abs(grad_b);
    for (double g : grad) max_grad = std::max(max_grad, std::abs(g));
    ++fit.iterations;
    if (max_grad < options.gradient_tolerance) break;

    const std::vector<double> old_weights = fit.weights;
    const double old_intercept = fit.intercept;
    while (true) {
      for (size_t c = 0; c < d; ++c) {
        fit.weights[c] = old_weights[c] - step * grad[c];
      }
      fit.intercept = old_intercept - step * grad_b;
      const double loss = ComputeLoss(Z, y, weights_per_sample, total_weight,
                                      fit.weights, fit.intercept, options.l2);
      fit.visited.push_back({fit.weights, fit.intercept});
      if (loss <= fit.loss + 1e-12 || step < 1e-8) {
        fit.loss = loss;
        step = std::min(step * 1.05, options.learning_rate * 4.0);
        break;
      }
      step *= 0.5;
    }
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

enum class Design {
  kGaussian,     // 6 numeric columns, labels drawn from the signal.
  kOneHot,       // 40 one-hot columns plus 2 numeric ones.
  kSeparable,    // As kGaussian, but the label is the signal's sign.
  kHeavyTailed,  // 3 cubed-Gaussian columns, coin-flip labels, and
                 // weights spread over six decades: some full Newton
                 // steps overshoot, so the halving path runs.
};

struct Case {
  std::string name;
  size_t rows;
  Design design;
  int max_iterations;
  double learning_rate = 0.5;  // The evaluator test's descent trajectory.
  // How close the fit's weights must come to the descent's optimum. A
  // separable optimum is flat (curvature about l2 along the separating
  // direction), so a 1e-6 gradient pins it less tightly.
  double weight_tolerance = 1e-5;
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
  const size_t d = c.design == Design::kOneHot        ? kLevels + 2
                   : c.design == Design::kHeavyTailed ? 3
                                                      : 6;
  Data data;
  data.X = Matrix(c.rows, d);
  data.y.resize(c.rows);
  data.weights.resize(c.rows);
  for (size_t r = 0; r < c.rows; ++r) {
    if (c.design == Design::kHeavyTailed) {
      for (size_t k = 0; k < d; ++k) {
        const double g = rng.Gaussian(0.0, 1.0);
        data.X(r, k) = g * g * g;
      }
      data.y[r] = rng.NextDouble() < 0.5 ? 1 : 0;
      data.weights[r] = std::pow(10.0, rng.Uniform(-3.0, 3.0));
      continue;
    }
    double signal = 0.0;
    if (c.design == Design::kOneHot) {
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
    const double draw = rng.NextDouble();
    data.y[r] = c.design == Design::kSeparable ? (signal > 0.0 ? 1 : 0)
                                               : (draw < Sigmoid(signal) ? 1 : 0);
    data.weights[r] = 0.25 + 2.0 * rng.NextDouble();
  }
  return data;
}

const Case kCases[] = {
    {"one_row", 1, Design::kGaussian, 500},
    {"below_chunk", kLogisticRowChunk - 1, Design::kGaussian, 500},
    {"chunk_plus_one", kLogisticRowChunk + 1, Design::kGaussian, 500},
    // Capped to keep TSan quick.
    {"fifty_thousand", 50000, Design::kGaussian, 120},
    {"one_hot", 3000, Design::kOneHot, 500},
    {"backtracking", 5000, Design::kGaussian, 500, 40.0},
    {"separable", 3000, Design::kSeparable, 500, 0.5, 1e-4},
    {"heavy_tailed", 19, Design::kHeavyTailed, 500},
};

Matrix Standardized(const Matrix& X, const std::vector<double>* weights) {
  Standardizer standardizer;
  EXPECT_TRUE(standardizer.Fit(X, weights).ok());
  return standardizer.Transform(X).value();
}

class LogisticFusedFitTest : public ::testing::TestWithParam<Case> {};

// Newton reaches the optimum the descent creeps towards: a loss no higher
// than the default descent's, weights within the case's tolerance (1e-5
// unless separable) of a descent run to a 1e-11 gradient, in at most 20
// iterations, with the same bits on pools of 0, the shared count and 7
// workers.
TEST_P(LogisticFusedFitTest, FitConvergesToDescentOptimumOnEveryPool) {
  const Case& c = GetParam();
  const Data data = MakeData(c, 1000 + c.rows);
  LogisticRegressionOptions options;
  options.max_iterations = c.max_iterations;
  ThreadPool serial(0);
  ThreadPool seven(7);
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unweighted");
    const std::vector<double>* weights = weighted ? &data.weights : nullptr;
    const std::vector<double> per_sample =
        weighted ? data.weights : std::vector<double>(c.rows, 1.0);
    const Matrix Z = Standardized(data.X, weights);
    double total_weight = 0.0;
    for (double w : per_sample) total_weight += w;

    LogisticRegression model(options);
    ASSERT_TRUE(model.Fit(data.X, data.y, weights).ok());
    EXPECT_LE(model.last_fit_iterations(), 20);
    const double loss = ComputeLoss(Z, data.y, per_sample, total_weight,
                                    model.weights(), model.intercept(),
                                    options.l2);

    DescentOptions descent_options;
    descent_options.max_iterations = c.max_iterations;
    const ReferenceFit descent =
        FitDescent(Z, data.y, per_sample, descent_options);
    EXPECT_LE(loss, descent.loss);

    // With a single label the intercept has no finite optimum: each
    // optimiser stops wherever its gradient test fires.
    const long positives = std::count(data.y.begin(), data.y.end(), 1);
    if (positives > 0 && positives < static_cast<long>(c.rows)) {
      DescentOptions tight;
      tight.gradient_tolerance = 1e-11;
      tight.max_iterations = 1000000;
      const ReferenceFit optimum = FitDescent(Z, data.y, per_sample, tight);
      ASSERT_LT(optimum.iterations, tight.max_iterations);
      for (size_t j = 0; j < optimum.weights.size(); ++j) {
        EXPECT_NEAR(model.weights()[j], optimum.weights[j],
                    c.weight_tolerance)
            << j;
      }
      EXPECT_NEAR(model.intercept(), optimum.intercept, c.weight_tolerance);
    }

    const std::vector<double> scores = model.PredictScores(data.X).value();
    for (ThreadPool* pool : {&serial, &ThreadPool::Shared(), &seven}) {
      SCOPED_TRACE("workers " + std::to_string(pool->num_workers()));
      internal::LogisticObjective objective(Z, data.y, per_sample,
                                            options.l2);
      std::vector<double> w;
      double b = 0.0;
      const Result<internal::LogisticNewtonStats> stats =
          internal::MinimizeLogisticObjective(objective, options, *pool, &w,
                                              &b);
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats.value().iterations, model.last_fit_iterations());
      if (c.design == Design::kHeavyTailed && weighted) {
        // Some full steps were rejected, so the halving path is covered.
        EXPECT_GT(stats.value().passes, stats.value().iterations);
      }
      EXPECT_TRUE(BitwiseEqual(w, model.weights()));
      EXPECT_TRUE(BitwiseEqual(b, model.intercept()));
      std::vector<double> pool_scores(c.rows);
      for (size_t r = 0; r < c.rows; ++r) {
        pool_scores[r] = Sigmoid(Z.RowDot(r, w) + b);
      }
      EXPECT_TRUE(BitwiseEqual(pool_scores, scores));
    }
  }
}

TEST_P(LogisticFusedFitTest, EvaluatorMatchesReferenceOnEveryPool) {
  const Case& c = GetParam();
  const Data data = MakeData(c, 2000 + c.rows);
  const Matrix Z = Standardized(data.X, &data.weights);
  DescentOptions options;
  options.max_iterations = c.max_iterations;
  options.learning_rate = c.learning_rate;
  const ReferenceFit trajectory =
      FitDescent(Z, data.y, data.weights, options);
  if (c.learning_rate > 1.0) {
    // Some trial points were rejected, so the halving path is covered.
    EXPECT_GT(trajectory.visited.size(),
              static_cast<size_t>(trajectory.iterations) + 1);
  }
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
    const std::vector<double> want_hessian = NaiveHessian(
        Z, data.weights, total_weight, at.w, at.b, options.l2);
    double scale = 0.0;
    for (double v : want_hessian) scale = std::max(scale, std::abs(v));
    std::vector<double> first_hessian;
    for (ThreadPool* pool : {&serial, &ThreadPool::Shared(), &seven}) {
      SCOPED_TRACE("workers " + std::to_string(pool->num_workers()));
      std::vector<double> grad;
      double grad_b = 0.0;
      // Without the Hessian, then with it: the extra output moves nothing.
      const double loss = objective.Evaluate(at.w, at.b, *pool, &grad,
                                             &grad_b);
      EXPECT_TRUE(BitwiseEqual(loss, want_loss));
      EXPECT_TRUE(BitwiseEqual(grad, want_grad));
      EXPECT_TRUE(BitwiseEqual(grad_b, want_grad_b));
      std::vector<double> hessian;
      const double fused_loss = objective.Evaluate(at.w, at.b, *pool, &grad,
                                                   &grad_b, &hessian);
      EXPECT_TRUE(BitwiseEqual(fused_loss, want_loss));
      EXPECT_TRUE(BitwiseEqual(grad, want_grad));
      EXPECT_TRUE(BitwiseEqual(grad_b, want_grad_b));
      ASSERT_EQ(hessian.size(), want_hessian.size());
      for (size_t e = 0; e < hessian.size(); ++e) {
        EXPECT_NEAR(hessian[e], want_hessian[e], 1e-12 * scale) << e;
      }
      if (first_hessian.empty()) first_hessian = hessian;
      EXPECT_TRUE(BitwiseEqual(hessian, first_hessian));
    }
  }
}

TEST(LogisticNewtonTest, RejectsNonPositiveL2) {
  const Data data = MakeData(kCases[1], 5);
  for (const double l2 : {0.0, -1e-3, std::nan("")}) {
    LogisticRegressionOptions options;
    options.l2 = l2;
    LogisticRegression model(options);
    const Status status = model.Fit(data.X, data.y, nullptr);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << l2;
    EXPECT_FALSE(model.is_fitted());
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LogisticFusedFitTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace fairidx
