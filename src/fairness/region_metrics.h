// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Region-level fairness evaluators over GridAggregates: ENCE (Definition
// 3), disparity ranking and multi-objective residual mass computed from a
// partition's region rects with ONE batched QueryMany call, instead of the
// per-record grouping passes in ence.h / disparity_report.h or one Query
// per region. Every evaluator also has a Span<RegionAggregate> core so
// the serving layer can reuse the arithmetic on the region aggregates it
// queried off a sealed epoch.

#ifndef FAIRIDX_FAIRNESS_REGION_METRICS_H_
#define FAIRIDX_FAIRNESS_REGION_METRICS_H_

#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "geo/grid_aggregates.h"

namespace fairidx {

/// Region-partition ENCE (Definition 3 with regions as neighborhoods).
struct RegionEnceResult {
  /// sum_i (|N_i| / |D|) * |o(N_i) - e(N_i)| over populated regions.
  double ence = 0.0;
  /// |D|: total records across the regions.
  double total_count = 0.0;
  /// Regions holding at least one record.
  int populated_regions = 0;
};

/// ENCE from already-queried region aggregates (empty regions contribute
/// nothing, matching the record-grouping evaluator, which never sees an
/// id with zero members).
RegionEnceResult RegionEnce(Span<RegionAggregate> regions);

/// ENCE of the partition `regions` under `aggregates`, via one QueryMany.
RegionEnceResult RegionEnce(const GridAggregates& aggregates,
                            Span<CellRect> regions);

/// One region's row in a disparity ranking.
struct RegionDisparityRow {
  /// Index into the input region list.
  int region = 0;
  double population = 0.0;
  /// e(N): mean score.
  double mean_score = 0.0;
  /// o(N): mean label.
  double mean_label = 0.0;
  /// |o(N) - e(N)|.
  double abs_miscalibration = 0.0;
};

/// The `top_k` most-populated regions (population descending, region index
/// ascending on ties) with their calibration gaps — the region-partition
/// analogue of BuildDisparityReport, one QueryMany instead of per-record
/// grouping. Unpopulated regions are skipped.
std::vector<RegionDisparityRow> RegionDisparityTopK(
    const GridAggregates& aggregates, Span<CellRect> regions, int top_k);

/// Per-region |sum of residuals| (Eq. 13's inner term) in region order —
/// the multi-objective evaluator's per-partition report, one QueryMany.
std::vector<double> RegionAbsResidualMass(const GridAggregates& aggregates,
                                          Span<CellRect> regions);

}  // namespace fairidx

#endif  // FAIRIDX_FAIRNESS_REGION_METRICS_H_
