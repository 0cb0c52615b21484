// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Greedy fairness-first quadtree: an alternative complete-coverage index
// structure (the paper's future-work direction). Instead of fixed-depth
// binary splits, it repeatedly quarters the region with the largest weighted
// miscalibration until a target region count is reached — a best-first
// refinement that spends resolution where unfairness concentrates.
//
// The growth loop is exposed in two forms: BuildFairQuadtree (the one-shot
// partition build) and GrowFairQuadtree (the recorded core: same greedy
// decisions, plus the refinement tree and the leaf/node correspondence).
// The recording is what incremental maintenance
// (index/quadtree_maintainer.h) keeps between epochs so drifted subtrees
// can re-run the frontier locally instead of regrowing the whole tree.

#ifndef FAIRIDX_INDEX_QUADTREE_H_
#define FAIRIDX_INDEX_QUADTREE_H_

#include <vector>

#include "common/result.h"
#include "geo/grid.h"
#include "geo/grid_aggregates.h"
#include "index/partition.h"

namespace fairidx {

/// Options for the greedy fair quadtree.
struct FairQuadtreeOptions {
  /// Stop refining once at least this many regions exist.
  int target_regions = 64;
  /// Regions with fewer records than this are not refined further.
  double min_region_count = 1.0;
};

/// One node of a recorded quadtree growth, stored in creation (frontier
/// push) order: node 0 is the root, and a split node's children occupy the
/// contiguous index range [first_child, first_child + num_children).
/// Children are always created after their parent, so a reverse index walk
/// visits children before parents (what bottom-up aggregation relies on).
struct QuadTreeNode {
  CellRect rect;
  int first_child = -1;
  int num_children = 0;

  bool is_leaf() const { return num_children == 0; }
};

/// A recorded greedy growth: the refinement tree plus the finished leaves.
/// `leaves` (and the parallel `leaf_nodes` ids) are in the SAME finished
/// order BuildFairQuadtree emits for identical inputs, so the recorded and
/// unrecorded builds produce bit-identical partitions.
struct QuadtreeRecording {
  std::vector<QuadTreeNode> nodes;
  /// Node ids of the leaves, parallel to `leaves`.
  std::vector<int> leaf_nodes;
  std::vector<CellRect> leaves;
  /// Frontier pops that actually split (the quadtree's analogue of a
  /// split scan).
  long long num_splits = 0;
};

/// The greedy frontier growth from an arbitrary root rect: repeatedly
/// quarters the frontier region with the largest weighted miscalibration
/// |sum_labels - sum_scores| (by cell midpoints; degenerate axes produce
/// 2-way splits) until at least `options.target_regions` regions exist.
/// Deterministic: ties break toward the earlier-created region. This is
/// both the core of BuildFairQuadtree (root = the full grid) and the
/// re-split engine the maintainer runs on a drifted subtree rect.
Result<QuadtreeRecording> GrowFairQuadtree(const GridAggregates& aggregates,
                                           const CellRect& root,
                                           const FairQuadtreeOptions& options);

/// Builds the greedy quadtree partition over the full grid (see
/// GrowFairQuadtree for the refinement rules). Deterministic.
Result<PartitionResult> BuildFairQuadtree(const Grid& grid,
                                          const GridAggregates& aggregates,
                                          const FairQuadtreeOptions& options);

}  // namespace fairidx

#endif  // FAIRIDX_INDEX_QUADTREE_H_
