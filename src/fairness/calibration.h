// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Calibration primitives (Section 2.2 of the paper). For a model h over a
// set of records, e(h) is the mean confidence score and o(h) the true
// fraction of positives; |e - o| is the absolute miscalibration and e/o the
// ratio form shown in Fig. 6.

#ifndef FAIRIDX_FAIRNESS_CALIBRATION_H_
#define FAIRIDX_FAIRNESS_CALIBRATION_H_

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace fairidx {

/// Aggregate calibration of a record set.
struct CalibrationStats {
  double count = 0.0;
  /// e(h): mean confidence score (0 when empty).
  double mean_score = 0.0;
  /// o(h): fraction of positive labels (0 when empty).
  double mean_label = 0.0;

  /// |e - o|; the form the paper uses everywhere except Fig. 6, because it
  /// avoids division by zero in sparse regions.
  double AbsMiscalibration() const;

  /// e / o; NaN when o == 0 (the division-by-zero case the paper warns
  /// about). Perfectly calibrated models give 1.
  double RatioCalibration() const;
};

/// Calibration over all records. Sizes must match and be non-empty.
Result<CalibrationStats> ComputeCalibration(const std::vector<double>& scores,
                                            const std::vector<int>& labels);

/// Calibration over `indices` only (e.g. one neighborhood's records).
Result<CalibrationStats> ComputeCalibrationSubset(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<size_t>& indices);

/// Per-group calibration keyed by arbitrary integer group ids.
struct GroupCalibration {
  int group = 0;
  CalibrationStats stats;
};

/// Computes calibration within each distinct value of `groups` (same length
/// as scores/labels). Output is sorted by group id; each group's sums add
/// its records in input order (common/group_order.h).
Result<std::vector<GroupCalibration>> ComputeGroupCalibrations(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& groups);

/// Same, over the records at `indices` only, as if they were gathered into
/// new vectors first: index order is kept and a repeated index counts
/// twice.
Result<std::vector<GroupCalibration>> ComputeGroupCalibrationsSubset(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& groups, const std::vector<size_t>& indices);

}  // namespace fairidx

#endif  // FAIRIDX_FAIRNESS_CALIBRATION_H_
