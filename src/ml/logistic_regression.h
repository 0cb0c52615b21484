// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// L2-regularised logistic regression trained with full-batch gradient
// descent on standardized features. The paper's primary classifier.
//
// Each descent step is one pass over the rows that yields the loss and
// the gradient together (internal::LogisticObjective). The per-row terms
// run in fixed row chunks on ThreadPool::Shared(); the sums then run
// serially in row order, so the fitted model is bit-identical at any
// thread count.

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
  /// Initial step size; the optimiser halves it on loss increase.
  double learning_rate = 0.5;
  int max_iterations = 500;
  /// Stop when the max absolute gradient component falls below this.
  double gradient_tolerance = 1e-6;
  /// L2 penalty on non-intercept weights (per-sample scale).
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
  /// Number of gradient-descent iterations the last Fit performed.
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

/// Rows per task of LogisticObjective::Evaluate's parallel phase. It only
/// balances load: no sum depends on it.
inline constexpr size_t kLogisticRowChunk = 4096;

/// The objective LogisticRegression::Fit descends: the sample-weighted
/// mean negative log-likelihood of sigmoid(Z w + b) plus 0.5 * l2 * |w|^2.
/// Holds per-row scratch reused across evaluations; Z, y and
/// `sample_weights` (one nonnegative weight per row, positive total) must
/// outlive it.
class LogisticObjective {
 public:
  LogisticObjective(const Matrix& Z, const std::vector<int>& y,
                    const std::vector<double>& sample_weights, double l2);

  /// Returns the objective at (w, b) and writes its gradient to `grad`
  /// (resized to Z.cols()) and `grad_b`. The per-row terms run on `pool`
  /// (inline on a pool with no workers); the sums run serially in row
  /// order, so the result is bit-identical on any pool.
  double Evaluate(const std::vector<double>& w, double b, ThreadPool& pool,
                  std::vector<double>* grad, double* grad_b);

 private:
  const Matrix& Z_;
  const std::vector<int>& y_;
  const std::vector<double>& sample_weights_;
  double l2_;
  double total_weight_ = 0.0;
  std::vector<double> row_loss_;  // sample_weights[r] * nll_r.
  std::vector<double> row_err_;   // sample_weights[r] * (p_r - y_r).
};

}  // namespace internal

}  // namespace fairidx

#endif  // FAIRIDX_ML_LOGISTIC_REGRESSION_H_
