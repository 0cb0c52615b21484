// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Expected Neighborhood Calibration Error (Definition 3), the paper's
// primary fairness metric:
//
//   ENCE = sum_i (|N_i| / |D|) * | o(N_i) - e(N_i) |
//
// over a complete, non-overlapping neighborhood partition.

#ifndef FAIRIDX_FAIRNESS_ENCE_H_
#define FAIRIDX_FAIRNESS_ENCE_H_

#include <vector>

#include "common/result.h"
#include "fairness/calibration.h"

namespace fairidx {

/// Per-neighborhood calibration detail backing an ENCE value.
struct NeighborhoodCalibration {
  int neighborhood = 0;
  CalibrationStats stats;
  /// |N_i| / |D|.
  double weight = 0.0;
};

/// ENCE over records whose neighborhood ids are `neighborhoods`. All vectors
/// must be the same non-zero length.
Result<double> Ence(const std::vector<double>& scores,
                    const std::vector<int>& labels,
                    const std::vector<int>& neighborhoods);

/// ENCE restricted to `indices` (e.g. the test split); weights are relative
/// to the subset size. Equal to Ence() over the gathered subset: index order
/// is kept and a repeated index counts twice. All three vectors must have
/// the same length.
Result<double> EnceSubset(const std::vector<double>& scores,
                          const std::vector<int>& labels,
                          const std::vector<int>& neighborhoods,
                          const std::vector<size_t>& indices);

/// Per-neighborhood breakdown (sorted by neighborhood id). The weighted sum
/// of AbsMiscalibration equals Ence().
Result<std::vector<NeighborhoodCalibration>> EnceBreakdown(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& neighborhoods);

}  // namespace fairidx

#endif  // FAIRIDX_FAIRNESS_ENCE_H_
