#include "ml/standardizer.h"

#include <cmath>

namespace fairidx {

Status Standardizer::Fit(const Matrix& X,
                         const std::vector<double>* sample_weights) {
  if (X.rows() == 0 || X.cols() == 0) {
    return InvalidArgumentError("Standardizer::Fit: empty matrix");
  }
  if (sample_weights != nullptr && sample_weights->size() != X.rows()) {
    return InvalidArgumentError("Standardizer::Fit: weight size mismatch");
  }
  const size_t d = X.cols();
  means_.assign(d, 0.0);
  stds_.assign(d, 0.0);

  double total_weight = 0.0;
  for (size_t r = 0; r < X.rows(); ++r) {
    const double w = sample_weights ? (*sample_weights)[r] : 1.0;
    total_weight += w;
    const double* row = X.Row(r);
    for (size_t c = 0; c < d; ++c) means_[c] += w * row[c];
  }
  if (total_weight <= 0.0) {
    return InvalidArgumentError("Standardizer::Fit: zero total weight");
  }
  for (size_t c = 0; c < d; ++c) means_[c] /= total_weight;

  for (size_t r = 0; r < X.rows(); ++r) {
    const double w = sample_weights ? (*sample_weights)[r] : 1.0;
    const double* row = X.Row(r);
    for (size_t c = 0; c < d; ++c) {
      const double delta = row[c] - means_[c];
      stds_[c] += w * delta * delta;
    }
  }
  for (size_t c = 0; c < d; ++c) {
    stds_[c] = std::sqrt(stds_[c] / total_weight);
    if (stds_[c] < 1e-12) stds_[c] = 1.0;  // Constant column.
  }
  return Status::Ok();
}

Status Standardizer::CheckTransformable(const Matrix& X) const {
  if (!is_fitted()) {
    return FailedPreconditionError("Standardizer::Transform before Fit");
  }
  if (X.cols() != means_.size()) {
    return InvalidArgumentError("Standardizer::Transform: column mismatch");
  }
  return Status::Ok();
}

Result<Matrix> Standardizer::Transform(const Matrix& X) const {
  FAIRIDX_RETURN_IF_ERROR(CheckTransformable(X));
  Matrix out(X.rows(), X.cols());
  for (size_t r = 0; r < X.rows(); ++r) {
    const double* src = X.Row(r);
    double* dst = out.MutableRow(r);
    for (size_t c = 0; c < X.cols(); ++c) dst[c] = Standardize(src[c], c);
  }
  return out;
}

}  // namespace fairidx
