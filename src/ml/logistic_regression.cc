#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace fairidx {

namespace {

// Sigmoid(z) given e = exp(-|z|), the operand both stable branches
// exponentiate.
double SigmoidOfExp(double z, double e) {
  return z >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e);
}

}  // namespace

double Sigmoid(double z) { return SigmoidOfExp(z, std::exp(-std::abs(z))); }

namespace internal {

LogisticObjective::LogisticObjective(const Matrix& Z, const std::vector<int>& y,
                                     const std::vector<double>& sample_weights,
                                     double l2)
    : Z_(Z),
      y_(y),
      sample_weights_(sample_weights),
      l2_(l2),
      row_loss_(Z.rows()),
      row_err_(Z.rows()) {
  for (double w : sample_weights) total_weight_ += w;
}

double LogisticObjective::Evaluate(const std::vector<double>& w, double b,
                                   ThreadPool& pool, std::vector<double>* grad,
                                   double* grad_b) {
  const size_t n = Z_.rows();
  const size_t d = Z_.cols();
  // Phase 1, per row and independent across rows: one exp(-|margin|)
  // serves both the probability and the loss, whose stable branches
  // exponentiate exactly this operand.
  const size_t chunks = (n + kLogisticRowChunk - 1) / kLogisticRowChunk;
  pool.ParallelFor(chunks, pool.num_workers() + 1, [&](size_t chunk) {
    const size_t end = std::min(n, (chunk + 1) * kLogisticRowChunk);
    for (size_t r = chunk * kLogisticRowChunk; r < end; ++r) {
      const double margin = Z_.RowDot(r, w) + b;
      const double e = std::exp(-std::abs(margin));
      const double p = SigmoidOfExp(margin, e);
      // log(1 + exp(-m)) for y=1 and log(1 + exp(m)) for y=0, stably.
      const double z = y_[r] == 1 ? margin : -margin;
      const double nll = z > 0 ? std::log1p(e) : -z + std::log1p(e);
      row_loss_[r] = sample_weights_[r] * nll;
      row_err_[r] = sample_weights_[r] * (p - y_[r]);
    }
  });

  // Phase 2, serial in row order: the sums see the same terms in the same
  // order at any thread count, so every bit is independent of the pool.
  grad->assign(d, 0.0);
  double* g = grad->data();
  double loss = 0.0;
  double gb = 0.0;
  for (size_t r = 0; r < n; ++r) {
    loss += row_loss_[r];
    const double err = row_err_[r];
    const double* row = Z_.Row(r);
    for (size_t c = 0; c < d; ++c) g[c] += err * row[c];
    gb += err;
  }
  double penalty = 0.0;
  for (size_t c = 0; c < d; ++c) {
    g[c] = g[c] / total_weight_ + l2_ * w[c];
    penalty += w[c] * w[c];
  }
  *grad_b = gb / total_weight_;
  return loss / total_weight_ + 0.5 * l2_ * penalty;
}

}  // namespace internal

Status LogisticRegression::Fit(const Matrix& X, const std::vector<int>& y,
                               const std::vector<double>* sample_weights) {
  FAIRIDX_RETURN_IF_ERROR(ValidateTrainingInputs(X, y, sample_weights));
  fitted_ = false;

  FAIRIDX_RETURN_IF_ERROR(standardizer_.Fit(X, sample_weights));
  auto transformed = standardizer_.Transform(X);
  if (!transformed.ok()) return transformed.status();
  const Matrix& Z = transformed.value();

  const size_t n = Z.rows();
  const size_t d = Z.cols();
  std::vector<double> weights_per_sample(n, 1.0);
  if (sample_weights != nullptr) weights_per_sample = *sample_weights;
  internal::LogisticObjective objective(Z, y, weights_per_sample,
                                        options_.l2);
  ThreadPool& pool = ThreadPool::Shared();

  weights_.assign(d, 0.0);
  intercept_ = 0.0;
  double step = options_.learning_rate;
  std::vector<double> grad;
  double grad_b = 0.0;
  double prev_loss =
      objective.Evaluate(weights_, intercept_, pool, &grad, &grad_b);

  std::vector<double> old_weights;
  std::vector<double> trial_grad;
  double trial_grad_b = 0.0;
  last_fit_iterations_ = 0;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    double max_grad = std::abs(grad_b);
    for (double g : grad) max_grad = std::max(max_grad, std::abs(g));
    ++last_fit_iterations_;
    if (max_grad < options_.gradient_tolerance) break;

    // Backtracking step: retry with halved step while the loss increases.
    // The accepted point's gradient comes with its loss, and is exactly
    // the one the next iteration needs.
    old_weights = weights_;
    const double old_intercept = intercept_;
    while (true) {
      for (size_t c = 0; c < d; ++c) {
        weights_[c] = old_weights[c] - step * grad[c];
      }
      intercept_ = old_intercept - step * grad_b;
      const double loss = objective.Evaluate(weights_, intercept_, pool,
                                             &trial_grad, &trial_grad_b);
      if (loss <= prev_loss + 1e-12 || step < 1e-8) {
        prev_loss = loss;
        grad.swap(trial_grad);
        grad_b = trial_grad_b;
        // Gentle step growth recovers speed after a backtrack.
        step = std::min(step * 1.05, options_.learning_rate * 4.0);
        break;
      }
      step *= 0.5;
    }
  }
  fitted_ = true;
  return Status::Ok();
}

Result<std::vector<double>> LogisticRegression::PredictScores(
    const Matrix& X) const {
  if (!fitted_) {
    return FailedPreconditionError("LogisticRegression: predict before fit");
  }
  auto transformed = standardizer_.Transform(X);
  if (!transformed.ok()) return transformed.status();
  const Matrix& Z = transformed.value();
  std::vector<double> scores(Z.rows());
  for (size_t r = 0; r < Z.rows(); ++r) {
    scores[r] = Sigmoid(Z.RowDot(r, weights_) + intercept_);
  }
  return scores;
}

std::vector<double> LogisticRegression::FeatureImportances() const {
  std::vector<double> importances(weights_.size(), 0.0);
  double total = 0.0;
  for (size_t c = 0; c < weights_.size(); ++c) {
    importances[c] = std::abs(weights_[c]);
    total += importances[c];
  }
  if (total > 0.0) {
    for (double& v : importances) v /= total;
  }
  return importances;
}

}  // namespace fairidx
