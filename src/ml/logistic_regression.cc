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
namespace {

// Runs fn(chunk, begin, end) for the kLogisticRowChunk-row chunks of
// [0, n) on `pool`, inline when the pool has no workers.
template <typename Fn>
void ForEachRowChunk(size_t n, ThreadPool& pool, const Fn& fn) {
  const size_t chunks = (n + kLogisticRowChunk - 1) / kLogisticRowChunk;
  pool.ParallelFor(chunks, pool.num_workers() + 1, [&](size_t chunk) {
    fn(chunk, chunk * kLogisticRowChunk,
       std::min(n, (chunk + 1) * kLogisticRowChunk));
  });
}

}  // namespace

LogisticObjective::LogisticObjective(const Matrix& Z, const std::vector<int>& y,
                                     const std::vector<double>& sample_weights,
                                     double l2)
    : Z_(Z), y_(y), sample_weights_(sample_weights), l2_(l2) {
  for (double w : sample_weights) total_weight_ += w;
}

double LogisticObjective::Evaluate(const std::vector<double>& w, double b,
                                   ThreadPool& pool, std::vector<double>* grad,
                                   double* grad_b,
                                   std::vector<double>* hessian) {
  const size_t n = Z_.rows();
  const size_t d = Z_.cols();
  const size_t k = d + 1;
  const bool with_hessian = hessian != nullptr;
  const size_t stride = 1 + k + (with_hessian ? k * (k + 1) / 2 : 0);
  const size_t chunks = (n + kLogisticRowChunk - 1) / kLogisticRowChunk;
  partials_.assign(std::max<size_t>(chunks, 1) * stride, 0.0);

  // Phase 1, one partial record per chunk, rows in order within it: one
  // exp(-|margin|) serves the probability, the loss and the curvature,
  // whose stable forms all exponentiate exactly this operand.
  ForEachRowChunk(n, pool, [&](size_t chunk, size_t begin, size_t end) {
    double* record = partials_.data() + chunk * stride;
    double* g = record + 1;  // d weight terms, then the intercept's.
    double* h = g + k;       // Lower triangle, row by row.
    double loss = 0.0;
    for (size_t r = begin; r < end; ++r) {
      const double* row = Z_.Row(r);
      const double margin = Z_.RowDot(r, w) + b;
      const double e = std::exp(-std::abs(margin));
      const double p = SigmoidOfExp(margin, e);
      // log(1 + exp(-m)) for y=1 and log(1 + exp(m)) for y=0, stably.
      const double z = y_[r] == 1 ? margin : -margin;
      const double nll = z > 0 ? std::log1p(e) : -z + std::log1p(e);
      loss += sample_weights_[r] * nll;
      const double err = sample_weights_[r] * (p - y_[r]);
      for (size_t c = 0; c < d; ++c) g[c] += err * row[c];
      g[d] += err;
      if (!with_hessian) continue;
      // p (1 - p) = e / (1 + e)^2 on both branches, without cancellation.
      const double q = 1.0 / (1.0 + e);
      const double curvature = sample_weights_[r] * (e * q * q);
      double* h_row = h;
      for (size_t i = 0; i < d; ++i) {
        const double scaled = curvature * row[i];
        for (size_t j = 0; j <= i; ++j) h_row[j] += scaled * row[j];
        h_row += i + 1;
      }
      for (size_t j = 0; j < d; ++j) h_row[j] += curvature * row[j];
      h_row[d] += curvature;
    }
    record[0] = loss;
  });

  // Phase 2, serial in chunk order: the records and their order depend
  // only on n, so every bit is independent of the pool.
  double* total = partials_.data();
  for (size_t chunk = 1; chunk < chunks; ++chunk) {
    const double* record = total + chunk * stride;
    for (size_t i = 0; i < stride; ++i) total[i] += record[i];
  }
  grad->resize(d);
  double penalty = 0.0;
  for (size_t c = 0; c < d; ++c) {
    (*grad)[c] = total[1 + c] / total_weight_ + l2_ * w[c];
    penalty += w[c] * w[c];
  }
  *grad_b = total[1 + d] / total_weight_;
  if (with_hessian) {
    hessian->resize(k * k);
    const double* h = total + 1 + k;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j <= i; ++j) {
        const double value = *h++ / total_weight_;
        (*hessian)[i * k + j] = value;
        (*hessian)[j * k + i] = value;
      }
      if (i < d) (*hessian)[i * k + i] += l2_;
    }
  }
  return total[0] / total_weight_ + 0.5 * l2_ * penalty;
}

namespace {

// Solves A x = rhs in place for the k x k symmetric positive definite A
// (row-major; only its lower triangle is read, and it is overwritten by
// the Cholesky factor). Returns false on a non-positive pivot.
bool CholeskySolve(size_t k, std::vector<double>* a, std::vector<double>* x) {
  double* m = a->data();
  for (size_t j = 0; j < k; ++j) {
    double pivot = m[j * k + j];
    for (size_t p = 0; p < j; ++p) pivot -= m[j * k + p] * m[j * k + p];
    if (!(pivot > 0.0)) return false;
    const double diag = std::sqrt(pivot);
    m[j * k + j] = diag;
    for (size_t i = j + 1; i < k; ++i) {
      double value = m[i * k + j];
      for (size_t p = 0; p < j; ++p) value -= m[i * k + p] * m[j * k + p];
      m[i * k + j] = value / diag;
    }
  }
  double* v = x->data();
  for (size_t i = 0; i < k; ++i) {  // L y = rhs.
    for (size_t p = 0; p < i; ++p) v[i] -= m[i * k + p] * v[p];
    v[i] /= m[i * k + i];
  }
  for (size_t i = k; i-- > 0;) {  // L^T x = y.
    for (size_t p = i + 1; p < k; ++p) v[i] -= m[p * k + i] * v[p];
    v[i] /= m[i * k + i];
  }
  return true;
}

}  // namespace

Result<Matrix> StandardizeRows(const Standardizer& standardizer,
                               const Matrix& X, ThreadPool& pool) {
  FAIRIDX_RETURN_IF_ERROR(standardizer.CheckTransformable(X));
  Matrix out(X.rows(), X.cols());
  ForEachRowChunk(X.rows(), pool, [&](size_t, size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const double* src = X.Row(r);
      double* dst = out.MutableRow(r);
      for (size_t c = 0; c < X.cols(); ++c) {
        dst[c] = standardizer.Standardize(src[c], c);
      }
    }
  });
  return out;
}

Result<std::vector<double>> PredictLogisticScores(
    const LogisticRegression& model, const Matrix& X, ThreadPool& pool) {
  if (!model.is_fitted()) {
    return FailedPreconditionError("LogisticRegression: predict before fit");
  }
  const Standardizer& standardizer = model.standardizer();
  FAIRIDX_RETURN_IF_ERROR(standardizer.CheckTransformable(X));
  const std::vector<double>& w = model.weights();
  const double b = model.intercept();
  std::vector<double> scores(X.rows());
  ForEachRowChunk(X.rows(), pool, [&](size_t, size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      // RowDot's sum over the standardized row, term by term.
      const double* row = X.Row(r);
      double dot = 0.0;
      for (size_t c = 0; c < X.cols(); ++c) {
        dot += standardizer.Standardize(row[c], c) * w[c];
      }
      scores[r] = Sigmoid(dot + b);
    }
  });
  return scores;
}

Result<LogisticNewtonStats> MinimizeLogisticObjective(
    LogisticObjective& objective, const LogisticRegressionOptions& options,
    ThreadPool& pool, std::vector<double>* w, double* b) {
  if (!(options.l2 > 0.0) || !std::isfinite(options.l2)) {
    return InvalidArgumentError(
        "LogisticRegression: l2 must be positive and finite");
  }
  const size_t d = objective.num_weights();
  const size_t k = d + 1;
  w->assign(d, 0.0);
  *b = 0.0;
  std::vector<double> grad;
  std::vector<double> hessian;
  double grad_b = 0.0;
  double loss = objective.Evaluate(*w, *b, pool, &grad, &grad_b, &hessian);
  LogisticNewtonStats stats;
  stats.passes = 1;

  std::vector<double> delta(k);
  std::vector<double> trial_w(d);
  std::vector<double> trial_grad;
  std::vector<double> trial_hessian;
  double trial_grad_b = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double max_grad = std::abs(grad_b);
    for (double g : grad) max_grad = std::max(max_grad, std::abs(g));
    ++stats.iterations;
    if (max_grad < options.gradient_tolerance) break;

    // Newton direction: (H + mu e_b e_b^T) delta = gradient, where
    // mu = l2 |grad_b| damps the unpenalized intercept. The weights'
    // block already carries l2, so the system is positive definite
    // whenever grad_b != 0, even if every probability saturates; and mu
    // vanishes at the optimum, so convergence stays quadratic.
    hessian[k * k - 1] += options.l2 * std::abs(grad_b);
    std::copy(grad.begin(), grad.end(), delta.begin());
    delta[d] = grad_b;
    if (!CholeskySolve(k, &hessian, &delta)) {
      return InternalError("LogisticRegression: Newton system is singular");
    }
    // Full step first, halved while the loss increases. The accepted
    // trial's gradient and Hessian are the next iteration's, so a
    // full-step iteration is one pass. If no step down to 1e-8 is
    // accepted, the loss cannot move at this precision: stop.
    bool accepted = false;
    for (double step = 1.0; !accepted && step >= 1e-8; step *= 0.5) {
      for (size_t c = 0; c < d; ++c) trial_w[c] = (*w)[c] - step * delta[c];
      const double trial_b = *b - step * delta[d];
      const double trial_loss = objective.Evaluate(
          trial_w, trial_b, pool, &trial_grad, &trial_grad_b, &trial_hessian);
      ++stats.passes;
      if (trial_loss <= loss + 1e-12) {
        accepted = true;
        loss = trial_loss;
        w->swap(trial_w);
        *b = trial_b;
        grad.swap(trial_grad);
        grad_b = trial_grad_b;
        hessian.swap(trial_hessian);
      }
    }
    if (!accepted) break;
  }
  return stats;
}

}  // namespace internal

Status LogisticRegression::Fit(const Matrix& X, const std::vector<int>& y,
                               const std::vector<double>* sample_weights) {
  FAIRIDX_RETURN_IF_ERROR(ValidateTrainingInputs(X, y, sample_weights));
  fitted_ = false;

  FAIRIDX_RETURN_IF_ERROR(standardizer_.Fit(X, sample_weights));
  FAIRIDX_ASSIGN_OR_RETURN(
      const Matrix Z,
      internal::StandardizeRows(standardizer_, X, ThreadPool::Shared()));

  std::vector<double> weights_per_sample(Z.rows(), 1.0);
  if (sample_weights != nullptr) weights_per_sample = *sample_weights;
  internal::LogisticObjective objective(Z, y, weights_per_sample,
                                        options_.l2);
  FAIRIDX_ASSIGN_OR_RETURN(
      const internal::LogisticNewtonStats stats,
      internal::MinimizeLogisticObjective(objective, options_,
                                          ThreadPool::Shared(), &weights_,
                                          &intercept_));
  last_fit_iterations_ = stats.iterations;
  fitted_ = true;
  return Status::Ok();
}

Result<std::vector<double>> LogisticRegression::PredictScores(
    const Matrix& X) const {
  return internal::PredictLogisticScores(*this, X, ThreadPool::Shared());
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
