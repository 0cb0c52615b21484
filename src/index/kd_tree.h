// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The paper's primary contribution: the Fair KD-tree (Algorithm 1). Given
// confidence scores from an initial classifier run over the base grid, the
// tree recursively splits the map minimising the fairness objective (Eq. 9),
// so the resulting neighborhoods balance miscalibration. The same recursion
// with the kMedianCount objective is the paper's Median KD-tree baseline
// (each node split at the data median). This module is the
// index-construction half; the end-to-end pipeline (initial training,
// re-districting, retraining) lives in core/pipeline.h.
//
// Shared KD machinery over the base grid: the SplitNeighborhood candidate
// scan (Algorithm 2) and the one serial DFS recursion (Algorithm 1) behind
// every KD build. Axis convention: axis 0 splits rows (a horizontal cut,
// grouping rows), axis 1 splits columns (a vertical cut) — Algorithm 2's
// "transpose" case.
//
// The split scan is implemented twice: the fused incremental sweep (the
// default hot path, built on GridAggregates::SplitSweep with per-objective
// field masks) and a retained naive reference that queries both children
// from scratch per offset. Both produce bit-identical results; the
// reference exists for differential tests and as the benchmark baseline.

#ifndef FAIRIDX_INDEX_KD_TREE_H_
#define FAIRIDX_INDEX_KD_TREE_H_

#include <vector>

#include "common/result.h"
#include "geo/grid.h"
#include "geo/grid_aggregates.h"
#include "index/partition.h"
#include "index/split_objective.h"

namespace fairidx {

/// The outcome of one SplitNeighborhood call.
struct KdSplit {
  bool valid = false;
  int axis = 0;
  /// Split position: rows/cols [begin, begin+offset) go left.
  int offset = 0;
  CellRect left;
  CellRect right;
  double objective = 0.0;
};

/// Algorithm 2: scans every candidate split of `rect` along `axis` and
/// returns the argmin of `options`. Ties break toward the most central
/// split position (then the smaller offset), keeping degenerate regions
/// (all-zero objective) split evenly and deterministically.
/// Returns an invalid split if the axis has fewer than 2 rows/cols.
///
/// Hot path: the parent corners are hoisted once and each offset reads one
/// interleaved prefix-line pair (GridAggregates::SplitSweep), touching only
/// the fields the objective needs.
KdSplit FindBestSplit(const GridAggregates& aggregates, const CellRect& rect,
                      int axis, const SplitObjectiveOptions& options);

/// The pre-fusion reference scan: two full Query() calls per offset.
/// Bit-identical to FindBestSplit by construction; kept as the differential
/// test oracle and benchmark baseline.
KdSplit FindBestSplitNaive(const GridAggregates& aggregates,
                           const CellRect& rect, int axis,
                           const SplitObjectiveOptions& options);

/// Like FindBestSplit, but falls back to the other axis when the preferred
/// one cannot be split.
KdSplit FindBestSplitWithFallback(const GridAggregates& aggregates,
                                  const CellRect& rect, int preferred_axis,
                                  const SplitObjectiveOptions& options);

/// Evaluates both axes and returns the lower-objective split
/// (`preferred_axis` wins ties). Invalid if neither axis can split.
KdSplit FindBestSplitAnyAxis(const GridAggregates& aggregates,
                             const CellRect& rect, int preferred_axis,
                             const SplitObjectiveOptions& options);

/// How a node picks its split axis.
enum class AxisPolicy {
  /// The paper's rule: axis = remaining height mod 2 (alternating), with
  /// fallback to the other axis when unsplittable.
  kAlternate,
  /// Evaluate both axes and keep the split with the lower objective
  /// (alternating axis breaks ties). A natural "custom split metric"
  /// extension; compared in bench_ablation_split.
  kBestObjective,
};

/// Which split-scan implementation a tree build uses.
enum class SplitScanEngine {
  /// Fused incremental sweep (default).
  kFused,
  /// Naive two-Query-per-offset reference (tests/benchmarks only).
  kNaiveReference,
};

/// Options for a full KD-tree build.
struct KdTreeOptions {
  /// Tree height th: up to 2^th leaves.
  int height = 6;
  /// Eq. 9 by default (the Fair KD-tree); kMedianCount gives the median
  /// baseline, and the other kinds drive the ablation study.
  SplitObjectiveOptions objective;
  AxisPolicy axis_policy = AxisPolicy::kAlternate;
  /// If >= 0, a node whose summed per-cell |miscalibration| (see
  /// RegionAggregate::sum_cell_abs_miscalibration) is at most this value
  /// becomes a leaf early: by the triangle inequality no refinement of
  /// such a node can contribute more than this to the (unnormalised)
  /// ENCE, so resolution is not wasted on calibrated areas. The signed
  /// node miscalibration would be unsound here — opposite-sign pockets
  /// cancel (Theorem 1's phenomenon). Negative disables.
  double early_stop_weighted_miscalibration = -1.0;
  /// Split-scan implementation; leave at kFused outside tests/benches.
  SplitScanEngine scan_engine = SplitScanEngine::kFused;
};

/// A built KD partition: leaves in DFS order plus the induced Partition.
struct KdTreeResult {
  PartitionResult result;
  /// Number of SplitNeighborhood invocations (complexity diagnostics).
  long long num_split_scans = 0;
};

/// One node of a recorded KD split tree, stored in preorder (node 0 is the
/// subtree root; a node's left subtree occupies the index range between its
/// left and right child indices). Leaves have left == right == -1.
struct KdTreeNode {
  CellRect rect;
  int left = -1;
  int right = -1;
  /// Height budget the node was built with (leaves may have a positive
  /// remaining height when they stopped early: single cell, unsplittable
  /// axis, or the early-stop rule).
  int remaining_height = 0;

  bool is_leaf() const { return left < 0; }
};

/// A recorded subtree build: the preorder node list plus the DFS leaf
/// rects (identical to what BuildKdTreePartition would emit for the same
/// root rect and options).
struct KdSubtreeRecording {
  std::vector<KdTreeNode> nodes;
  std::vector<CellRect> leaves;
  long long num_split_scans = 0;
};

/// Algorithm 1's recursion: DFS-splits the full grid to `options.height`
/// levels. The axis at a node with remaining height th is th mod 2. Nodes
/// that cannot be split on either axis become leaves early, so the leaf
/// count is min(2^height, what the grid permits). Serial: a build takes
/// milliseconds, far less than the model fits around it.
Result<KdTreeResult> BuildKdTreePartition(const Grid& grid,
                                          const GridAggregates& aggregates,
                                          const KdTreeOptions& options);

/// Recorded build of the subtree rooted at `rect` with `remaining_height`
/// levels. It runs the same recursion as BuildKdTreePartition, so from
/// grid.FullRect() the leaf list is bit-identical to that build's regions;
/// additionally the full split tree comes back in preorder, which is what
/// incremental maintenance (index/kd_tree_maintainer.h) walks.
/// `options.height` is ignored in favour of `remaining_height`.
Result<KdSubtreeRecording> BuildRecordedKdSubtree(
    const GridAggregates& aggregates, const CellRect& rect,
    int remaining_height, const KdTreeOptions& options);

/// One BFS level expansion used by the Iterative Fair KD-tree (Algorithm 3):
/// splits every region in `regions` along `axis`, returning the refined
/// region list. Regions that cannot split are carried over. `axis_policy`
/// selects the same per-node axis rule as BuildKdTreePartition (kAlternate
/// = split `axis` with fallback; kBestObjective = evaluate both axes,
/// `axis` breaks ties). With `num_threads` > 1 the regions are split in
/// parallel chunks; the output order matches the sequential scan.
std::vector<CellRect> SplitAllRegions(
    const GridAggregates& aggregates, const std::vector<CellRect>& regions,
    int axis, const SplitObjectiveOptions& options,
    AxisPolicy axis_policy = AxisPolicy::kAlternate, int num_threads = 1);

}  // namespace fairidx

#endif  // FAIRIDX_INDEX_KD_TREE_H_
