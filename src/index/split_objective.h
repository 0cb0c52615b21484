// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Split objectives for fairness-aware KD splitting. The paper's objective
// (Eq. 9) balances the *weighted miscalibration* of the two children:
//
//   z_k = | |L|*|o(L)-e(L)| - |R|*|o(R)-e(R)| |
//
// The multi-objective variant (Eq. 13) balances residual mass instead.
// Alternative objectives (minimax, weighted-sum, compactness composites) are
// provided for the ablation study that the paper's future-work section
// motivates ("custom split metrics for fairness-aware spatial indexing").

#ifndef FAIRIDX_INDEX_SPLIT_OBJECTIVE_H_
#define FAIRIDX_INDEX_SPLIT_OBJECTIVE_H_

#include <string>

#include "geo/grid_aggregates.h"
#include "geo/rect.h"

namespace fairidx {

/// Available split objectives (all minimised).
enum class SplitObjectiveKind {
  /// Paper Eq. 9: | |L|*mis(L) - |R|*mis(R) |.
  kPaperEq9,
  /// max(|L|*mis(L), |R|*mis(R)): directly cap the worse child.
  kMinimaxChild,
  /// |L|*mis(L) + |R|*mis(R): minimise total weighted child miscalibration.
  kWeightedSum,
  /// Paper Eq. 13 (multi-objective): | |L|*|resid(L)| - |R|*|resid(R)| |.
  kResidualBalanceEq13,
  /// Eq. 9-consistent residual form: | |resid(L)| - |resid(R)| | (for m = 1
  /// this equals Eq. 9 exactly, unlike Eq. 13 as printed).
  kResidualBalanceEq9,
  /// Standard KD-tree median split: | count(L) - count(R) |.
  kMedianCount,
};

/// Stable display name ("eq9", "minimax", ...).
const char* SplitObjectiveKindName(SplitObjectiveKind kind);

/// Objective configuration.
struct SplitObjectiveOptions {
  SplitObjectiveKind kind = SplitObjectiveKind::kPaperEq9;
  /// If > 0, adds `compactness_weight * total_count * penalty` where the
  /// penalty is the children's mean aspect ratio minus 1 — the composite
  /// geo+fairness metric sketched in the paper's introduction. 0 disables.
  double compactness_weight = 0.0;
};

/// Evaluates the objective for one candidate split of a node into
/// (left_rect, right_rect) with aggregates (left, right). Lower is better.
/// Only the fields named by RequiredAggregateFields(options) are read, so
/// callers may pass aggregates with the other fields unfilled.
double EvaluateSplit(const SplitObjectiveOptions& options,
                     const CellRect& left_rect, const RegionAggregate& left,
                     const CellRect& right_rect, const RegionAggregate& right);

/// The AggregateField mask of statistics EvaluateSplit reads under
/// `options`. The split scan passes this to GridAggregates::SplitSweep so
/// objectives like kMedianCount never touch the label/score/residual
/// prefixes at all.
unsigned RequiredAggregateFields(const SplitObjectiveOptions& options);

}  // namespace fairidx

#endif  // FAIRIDX_INDEX_SPLIT_OBJECTIVE_H_
