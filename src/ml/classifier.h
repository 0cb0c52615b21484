// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The binary-classifier interface used by the fair indexing pipeline. The
// paper treats models as black boxes that emit confidence scores in [0, 1];
// three concrete models are provided (logistic regression, decision tree,
// Gaussian naive Bayes), matching the paper's evaluation. All models accept
// per-sample weights so the reweighting baseline can be expressed.

#ifndef FAIRIDX_ML_CLASSIFIER_H_
#define FAIRIDX_ML_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"

namespace fairidx {

/// Abstract binary classifier. Implementations must be deterministic: the
/// same inputs always produce the same model.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on design matrix `X` (rows = samples) with labels `y` in {0,1}.
  /// `sample_weights`, if non-null, must be non-negative with positive sum
  /// and one entry per row. Refitting an already-fitted model is allowed and
  /// discards the previous fit.
  virtual Status Fit(const Matrix& X, const std::vector<int>& y,
                     const std::vector<double>* sample_weights) = 0;

  Status Fit(const Matrix& X, const std::vector<int>& y) {
    return Fit(X, y, nullptr);
  }

  /// Confidence scores in [0, 1], one per row of `X`. Requires a prior
  /// successful Fit with the same column count.
  virtual Result<std::vector<double>> PredictScores(const Matrix& X) const = 0;

  /// Per-feature importance, normalized to sum to 1 (all zeros if the model
  /// found no signal). Requires a prior successful Fit.
  virtual std::vector<double> FeatureImportances() const = 0;

  /// Short stable model name ("logistic_regression", ...).
  virtual std::string name() const = 0;

  /// A fresh, unfitted classifier with the same hyper-parameters.
  virtual std::unique_ptr<Classifier> Clone() const = 0;

  virtual bool is_fitted() const = 0;
};

/// Thresholds scores into 0/1 predictions.
std::vector<int> ScoresToLabels(const std::vector<double>& scores,
                                double threshold = 0.5);

/// Validates (X, y, weights) shape/value invariants shared by all models:
/// a non-empty X, one 0/1 label per row, finite features, and (if given)
/// one finite nonnegative weight per row with a positive finite sum. A
/// failure is a one-line InvalidArgument naming the first offending row.
Status ValidateTrainingInputs(const Matrix& X, const std::vector<int>& y,
                              const std::vector<double>* sample_weights);

}  // namespace fairidx

#endif  // FAIRIDX_ML_CLASSIFIER_H_
