#include "ml/classifier.h"

#include <cmath>
#include <string>

namespace fairidx {

std::vector<int> ScoresToLabels(const std::vector<double>& scores,
                                double threshold) {
  std::vector<int> labels(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    labels[i] = scores[i] >= threshold ? 1 : 0;
  }
  return labels;
}

Status ValidateTrainingInputs(const Matrix& X, const std::vector<int>& y,
                              const std::vector<double>* sample_weights) {
  if (X.rows() == 0 || X.cols() == 0) {
    return InvalidArgumentError("Fit: empty design matrix");
  }
  if (y.size() != X.rows()) {
    return InvalidArgumentError("Fit: labels size != rows");
  }
  for (int label : y) {
    if (label != 0 && label != 1) {
      return InvalidArgumentError("Fit: labels must be 0 or 1");
    }
  }
  // One NaN or infinity would turn every fitted parameter, and so every
  // score, into NaN without an error.
  for (size_t r = 0; r < X.rows(); ++r) {
    const double* row = X.Row(r);
    for (size_t c = 0; c < X.cols(); ++c) {
      if (!std::isfinite(row[c])) {
        return InvalidArgumentError("Fit: non-finite feature at row " +
                                    std::to_string(r) + ", column " +
                                    std::to_string(c));
      }
    }
  }
  if (sample_weights != nullptr) {
    if (sample_weights->size() != X.rows()) {
      return InvalidArgumentError("Fit: sample_weights size != rows");
    }
    double total = 0.0;
    for (size_t r = 0; r < sample_weights->size(); ++r) {
      const double w = (*sample_weights)[r];
      if (!std::isfinite(w)) {
        return InvalidArgumentError("Fit: non-finite sample weight at row " +
                                    std::to_string(r));
      }
      if (w < 0.0) {
        return InvalidArgumentError("Fit: negative sample weight at row " +
                                    std::to_string(r));
      }
      total += w;
    }
    if (total <= 0.0) {
      return InvalidArgumentError("Fit: sample weights sum to zero");
    }
    if (!std::isfinite(total)) {
      return InvalidArgumentError("Fit: sample weights sum overflows");
    }
  }
  return Status::Ok();
}

}  // namespace fairidx
