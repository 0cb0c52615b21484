// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Multi-Objective Fair KD-tree (Section 4.3): trains one classifier per
// task, aggregates per-record residuals v_tot[u] = sum_i alpha_i(s^i_u -
// y^i_u) (Eq. 11-12), and builds a single Fair KD-tree whose splits balance
// residual mass (Eq. 13-14), producing one neighborhood partition that is
// fair for all tasks at once.

#ifndef FAIRIDX_CORE_MULTI_OBJECTIVE_H_
#define FAIRIDX_CORE_MULTI_OBJECTIVE_H_

#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/split.h"
#include "index/kd_tree.h"
#include "ml/classifier.h"

namespace fairidx {

/// Options for the multi-objective build.
struct MultiObjectiveOptions {
  int height = 6;
  /// Task indices to balance; empty means all of the dataset's tasks.
  std::vector<int> tasks;
  /// Task priorities; must match `tasks` in size, lie in [0, 1] and sum to
  /// 1, and sum(|alpha_i|) may not exceed GridAggregates::kMaxAbsResidual,
  /// the residual bound the aggregates enforce. Empty means equal weights
  /// (the paper's experiments use alpha = 0.5 for two tasks).
  std::vector<double> alphas;
  NeighborhoodEncoding encoding = NeighborhoodEncoding::kNumericId;
  /// Eq. 13 as printed carries an extra |L| weighting relative to Eq. 9;
  /// set true for the Eq. 9-consistent form.
  bool use_eq9_weighting = false;
  /// Per-task fits (design-matrix assembly + model training + scoring) run
  /// concurrently on the shared ThreadPool when > 1. Residuals are
  /// alpha-combined in task order afterwards, so v_tot is bit-identical at
  /// any thread count.
  int num_threads = 1;
};

/// Result of the multi-objective build.
struct MultiObjectiveResult {
  PartitionResult partition;
  /// Per-record aggregated residuals v_tot used for splitting.
  std::vector<double> residuals;
  /// |sum of v_tot| inside each leaf region (Eq. 13's inner term), in leaf
  /// order — the per-partition balance report, evaluated with one batched
  /// aggregate query (fairness/region_metrics.h).
  std::vector<double> region_abs_residual_mass;
};

/// Computes v_tot over training records: one classifier per task is fitted
/// on `split.train_indices` (with base-grid cells as the location feature),
/// and residuals are alpha-combined. Exposed separately for tests.
Result<std::vector<double>> ComputeMultiObjectiveResiduals(
    const Dataset& dataset, const TrainTestSplit& split,
    const Classifier& prototype, const MultiObjectiveOptions& options);

/// Runs the full multi-objective build (Eq. 11-14). The input dataset is
/// not modified.
Result<MultiObjectiveResult> BuildMultiObjectiveFairKdTree(
    const Dataset& dataset, const TrainTestSplit& split,
    const Classifier& prototype, const MultiObjectiveOptions& options);

}  // namespace fairidx

#endif  // FAIRIDX_CORE_MULTI_OBJECTIVE_H_
