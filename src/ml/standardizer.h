// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Per-feature z-score standardization, fitted on training data and applied
// to both train and test matrices. Logistic regression uses this internally
// so that its fit is well conditioned regardless of feature scales (income
// in thousands next to percentages).

#ifndef FAIRIDX_ML_STANDARDIZER_H_
#define FAIRIDX_ML_STANDARDIZER_H_

#include <vector>

#include "common/matrix.h"
#include "common/result.h"

namespace fairidx {

/// Fits column means/stds and maps x -> (x - mean) / std. Constant columns
/// get std 1 so they map to zero rather than dividing by zero.
class Standardizer {
 public:
  /// Fits on `X`, optionally weighted. Refitting discards the previous fit.
  Status Fit(const Matrix& X,
             const std::vector<double>* sample_weights = nullptr);

  /// Transforms `X`; column count must match the fitted matrix.
  Result<Matrix> Transform(const Matrix& X) const;

  /// OK when Transform(X) would succeed: fitted, with X's column count.
  Status CheckTransformable(const Matrix& X) const;

  /// Column `c`'s value x, standardized: the one expression every
  /// transform shares, so a row standardized inline has Transform's bits.
  double Standardize(double x, size_t c) const {
    return (x - means_[c]) / stds_[c];
  }

  bool is_fitted() const { return !means_.empty(); }
  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stds() const { return stds_; }

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

}  // namespace fairidx

#endif  // FAIRIDX_ML_STANDARDIZER_H_
