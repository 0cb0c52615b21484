// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// L2-regularised logistic regression trained with damped Newton (IRLS)
// on standardized features. The paper's primary classifier.
//
// Each Newton iteration is one pass over the rows that yields the loss,
// the gradient and the Hessian together (internal::LogisticObjective).
// Fixed 4096-row chunks run on ThreadPool::Shared(), each writing one
// partial sum; the partials are then added serially in chunk order, so
// the fitted model is bit-identical at any thread count. Standardizing
// the training rows and scoring run per row in the same chunks on the
// same pool; each row's value depends on that row alone.

#ifndef FAIRIDX_ML_LOGISTIC_REGRESSION_H_
#define FAIRIDX_ML_LOGISTIC_REGRESSION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/standardizer.h"

namespace fairidx {

/// Hyper-parameters for LogisticRegression.
struct LogisticRegressionOptions {
  /// Cap on Newton iterations (each counts one gradient check).
  int max_iterations = 500;
  /// Stop when the max absolute gradient component falls below this.
  double gradient_tolerance = 1e-6;
  /// L2 penalty on non-intercept weights (per-sample scale). Must be
  /// positive: it keeps the weights' block of every Newton system
  /// positive definite.
  double l2 = 1e-3;
};

/// Binary logistic regression: p(y=1|x) = sigmoid(w . z + b) with z the
/// standardized feature vector.
class LogisticRegression : public Classifier {
 public:
  LogisticRegression() = default;
  explicit LogisticRegression(const LogisticRegressionOptions& options)
      : options_(options) {}

  Status Fit(const Matrix& X, const std::vector<int>& y,
             const std::vector<double>* sample_weights) override;
  using Classifier::Fit;

  Result<std::vector<double>> PredictScores(const Matrix& X) const override;

  /// Importance = |w_j| on the standardized scale, normalized to sum 1.
  std::vector<double> FeatureImportances() const override;

  std::string name() const override { return "logistic_regression"; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<LogisticRegression>(options_);
  }
  bool is_fitted() const override { return fitted_; }

  /// Fitted weights on the standardized scale (size = feature count).
  const std::vector<double>& weights() const { return weights_; }
  double intercept() const { return intercept_; }
  /// The fitted feature standardization.
  const Standardizer& standardizer() const { return standardizer_; }
  /// Newton iterations the last Fit performed, counting the final
  /// converged gradient check (a fit that converges after k steps
  /// reports k + 1).
  int last_fit_iterations() const { return last_fit_iterations_; }

 private:
  LogisticRegressionOptions options_;
  Standardizer standardizer_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  bool fitted_ = false;
  int last_fit_iterations_ = 0;
};

/// Numerically stable sigmoid.
double Sigmoid(double z);

class ThreadPool;

namespace internal {

/// Rows per partial sum of LogisticObjective::Evaluate. The partials are
/// added in chunk order, so every sum depends on this constant and on the
/// row count, never on the pool.
inline constexpr size_t kLogisticRowChunk = 4096;

/// The objective LogisticRegression::Fit minimises: the sample-weighted
/// mean negative log-likelihood of sigmoid(Z w + b) plus 0.5 * l2 * |w|^2.
/// Holds per-chunk scratch reused across evaluations; Z, y and
/// `sample_weights` (one nonnegative weight per row, positive total) must
/// outlive it.
class LogisticObjective {
 public:
  LogisticObjective(const Matrix& Z, const std::vector<int>& y,
                    const std::vector<double>& sample_weights, double l2);

  /// Returns the objective at (w, b) and writes its gradient to `grad`
  /// (resized to Z.cols()) and `grad_b`. A non-null `hessian` receives
  /// the objective's Hessian over (w, b): (d+1) x (d+1), row-major and
  /// symmetric, the intercept last. Each kLogisticRowChunk-row chunk runs
  /// on `pool` (inline on a pool with no workers) and writes one partial
  /// record; the records are added serially in chunk order, so the result
  /// is bit-identical on any pool.
  double Evaluate(const std::vector<double>& w, double b, ThreadPool& pool,
                  std::vector<double>* grad, double* grad_b,
                  std::vector<double>* hessian = nullptr);

  /// Number of weights, Z.cols(); the intercept comes on top.
  size_t num_weights() const { return Z_.cols(); }

 private:
  const Matrix& Z_;
  const std::vector<int>& y_;
  const std::vector<double>& sample_weights_;
  double l2_;
  double total_weight_ = 0.0;
  // One record per chunk: the loss, d + 1 gradient terms (intercept
  // last), then, with a Hessian, its (d+1)(d+2)/2 lower-triangle terms.
  std::vector<double> partials_;
};

/// What one MinimizeLogisticObjective run did.
struct LogisticNewtonStats {
  /// Gradient checks, the final converged one included: what
  /// LogisticRegression::last_fit_iterations() reports.
  int iterations = 0;
  /// Fused Evaluate passes: one per accepted full step, one more per
  /// halving, plus the first.
  int passes = 0;
};

/// Standardizes `X` with `standardizer` in kLogisticRowChunk-row chunks on
/// `pool` (inline on a pool with no workers): what LogisticRegression::Fit
/// runs on ThreadPool::Shared(). Element for element equal to
/// standardizer.Transform(X), on any pool.
Result<Matrix> StandardizeRows(const Standardizer& standardizer,
                               const Matrix& X, ThreadPool& pool);

/// Scores `X` under the fitted `model` in kLogisticRowChunk-row chunks on
/// `pool`: each row is standardized inline and dotted with the weights,
/// with no standardized copy of `X`. What LogisticRegression::PredictScores
/// runs on ThreadPool::Shared(); bit-identical to
/// Sigmoid(Transform(X).RowDot(r, weights) + intercept), on any pool.
Result<std::vector<double>> PredictLogisticScores(
    const LogisticRegression& model, const Matrix& X, ThreadPool& pool);

/// Minimises `objective` by damped Newton from (0, 0), evaluating on
/// `pool`: what LogisticRegression::Fit runs on ThreadPool::Shared().
/// Writes the optimum to `w` and `b`. InvalidArgument when `options.l2`
/// is not positive. Bit-identical on any pool.
Result<LogisticNewtonStats> MinimizeLogisticObjective(
    LogisticObjective& objective, const LogisticRegressionOptions& options,
    ThreadPool& pool, std::vector<double>* w, double* b);

}  // namespace internal

}  // namespace fairidx

#endif  // FAIRIDX_ML_LOGISTIC_REGRESSION_H_
