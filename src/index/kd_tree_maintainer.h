// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Incremental maintenance for KD-tree partitions (the streaming
// follow-on to the online re-districting workload): instead of rebuilding
// the whole tree after every aggregate refresh — O(|D| log t) split scans
// plus an O(UV) partition rebuild — the maintainer keeps the recorded
// split tree plus a per-node aggregate snapshot from the last (re)build,
// and on Refine re-splits ONLY the subtrees whose region calibration gap
// |o(N) - e(N)| drifted past a bound. When every re-split subtree keeps
// its size (the common case for localized drift), the node array, the
// leaf list and the partition's cell map are all patched in place, so a
// refine costs O(drifted area), not O(UV).
//
// Exactness: Refine on aggregates identical to the build input computes a
// drift of exactly 0 at every node (snapshots and fresh values use the
// identical batched-leaf + bottom-up-sum scheme) and returns without
// touching the tree. Rebuilt subtrees go through the same
// BuildRecordedKdSubtree decisions a from-scratch build would take on the
// fresh aggregates, restricted to the drifted rect.

#ifndef FAIRIDX_INDEX_KD_TREE_MAINTAINER_H_
#define FAIRIDX_INDEX_KD_TREE_MAINTAINER_H_

#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "geo/grid.h"
#include "geo/grid_aggregates.h"
#include "index/kd_tree.h"

namespace fairidx {

/// Tuning for one Refine pass.
struct KdRefineOptions {
  /// A subtree is re-split when its region's calibration gap
  /// |MeanLabel - MeanScore| moved by more than this since the subtree's
  /// last (re)build. 0 re-splits on any drift at all.
  double drift_bound = 0.01;
};

/// What one Refine pass did.
struct KdRefineStats {
  /// Nodes whose drift was evaluated (the pre-pass covers every node from
  /// one batched leaf query plus bottom-up sums).
  int nodes_checked = 0;
  /// Drifted subtree roots that were re-split from scratch.
  int subtrees_rebuilt = 0;
  /// Split scans spent inside the re-split subtrees (compare against the
  /// full build's KdTreeResult::num_split_scans).
  long long num_split_scans = 0;
  /// True when the leaf list (and hence the partition) changed.
  bool changed = false;
  /// True when the pass patched in place (every re-split subtree kept its
  /// node and leaf counts); false for a splice or a no-op.
  bool patched_in_place = false;
  /// True when a leaf-count-changing splice published by patching only the
  /// changed positions' rects (Partition::DiffRects + ApplyRectPatch)
  /// instead of a full FromRects rebuild.
  bool patched_splice = false;
};

/// A KD partition plus the recorded split tree and per-node snapshots,
/// supporting drift-bounded incremental re-splits. Copyable: a copy
/// maintains its own tree independently (benchmarks refine copies).
class KdTreeMaintainer {
 public:
  /// Builds the tree on `aggregates` (identical leaves to
  /// BuildKdTreePartition with the same options) and snapshots every
  /// node's aggregate for later drift checks.
  static Result<KdTreeMaintainer> Build(const Grid& grid,
                                        const GridAggregates& aggregates,
                                        const KdTreeOptions& options);

  /// The current tree (leaves + partition). Valid after Build and updated
  /// by every Refine.
  const KdTreeResult& tree() const { return tree_; }

  /// Leaf count of the current tree.
  int num_leaves() const {
    return static_cast<int>(tree_.result.regions.size());
  }

  /// Max calibration-gap drift over the leaves, given fresh per-leaf
  /// aggregates in leaf order (e.g. one QueryMany over tree().result
  /// .regions against a sealed epoch). Pure observability — use
  /// WouldRefine as the maintenance trigger (leaf drift alone can be
  /// unactionable). Returns 0 on size mismatch.
  double MaxLeafDrift(Span<RegionAggregate> fresh_leaf_aggregates) const;

  /// True iff Refine at `options` would re-split at least one subtree,
  /// judged from fresh per-leaf aggregates (leaf order, e.g. from a
  /// sealed epoch's QueryMany): the exact bottom-up drift evaluation
  /// Refine runs, minus the grid queries, so a drifted-but-unsplittable
  /// region never triggers a no-op refine. False on size mismatch.
  bool WouldRefine(Span<RegionAggregate> fresh_leaf_aggregates,
                   const KdRefineOptions& options) const;

  /// Evaluates drift at every node against `aggregates`: each TOPMOST
  /// drifted node's subtree is re-split from scratch on the fresh
  /// aggregates (snapshot refreshed); clean nodes keep their structure and
  /// their reference snapshot, so drift accumulates against the last
  /// rebuild, not the last check.
  Result<KdRefineStats> Refine(const GridAggregates& aggregates,
                               const KdRefineOptions& options);

  /// Serializes the full maintenance state — split tree, per-node
  /// reference snapshots, leaf order, partition — to an opaque blob.
  /// Restore(grid, options, Save()) yields a maintainer whose tree,
  /// snapshots and partition are bit-identical to this one, so later
  /// Refine calls take the identical decisions (the durability layer's
  /// checkpoint path).
  std::string Save() const;

  /// Rebuilds a maintainer from Save() output. `grid` and `options` must
  /// match the saved maintainer's (the blob carries only derived state);
  /// the blob is validated structurally (counts, ranges, partition
  /// coverage) and rejected with DataLoss/InvalidArgument diagnostics.
  static Result<KdTreeMaintainer> Restore(const Grid& grid,
                                          const KdTreeOptions& options,
                                          const std::string& blob);

 private:
  struct Node {
    KdTreeNode node;
    RegionAggregate snapshot;
  };

  /// One drifted subtree scheduled for replacement: the preorder node
  /// range [begin, end) and leaf range [leaf_begin, leaf_begin +
  /// leaf_count) it currently occupies, plus its re-split recording.
  struct Patch {
    int begin = 0;
    int end = 0;
    int leaf_begin = 0;
    int leaf_count = 0;
    KdSubtreeRecording recording;
  };

  /// Per-refine pre-pass results.
  struct RefineScratch {
    std::vector<unsigned char> drifted;
    std::vector<unsigned char> subtree_dirty;
    std::vector<int> subtree_end;
  };

  KdTreeMaintainer(const Grid& grid, KdTreeOptions options)
      : grid_(grid), options_(std::move(options)) {}

  /// The bottom-up drift evaluation shared by Refine and WouldRefine:
  /// fills fresh per-node aggregates (leaf values + bottom-up sums) and
  /// the drift / dirty-subtree / subtree-extent marks.
  void DriftPrepass(Span<RegionAggregate> leaf_aggregates,
                    double drift_bound, std::vector<RegionAggregate>* fresh,
                    RefineScratch* scratch) const;

  /// Appends `recording`'s nodes (snapshotted against `aggregates`) and
  /// leaves to fresh output vectors.
  static void AppendRecording(const KdSubtreeRecording& recording,
                              const GridAggregates& aggregates,
                              std::vector<Node>* nodes,
                              std::vector<int>* leaf_nodes,
                              std::vector<CellRect>* leaves);

  /// Overwrites the patch's node/leaf/partition ranges in place (requires
  /// identical node and leaf counts).
  void ApplyPatchInPlace(const Patch& patch,
                         const GridAggregates& aggregates,
                         KdRefineStats* stats);

  /// Rebuilds the node/leaf vectors by splicing kept segments around the
  /// patches (sizes changed somewhere); patches the partition's cell map
  /// at the positions whose (rect, id) pair changed — O(changed area),
  /// bit-identical to a FromRects rebuild over the new leaf list.
  Status SpliceWithPatches(const std::vector<Patch>& patches,
                           const GridAggregates& aggregates,
                           KdRefineStats* stats);

  Grid grid_;
  KdTreeOptions options_;
  KdTreeResult tree_;
  /// Preorder split tree with per-node reference snapshots.
  std::vector<Node> nodes_;
  /// Node indices of the leaves, in leaf (DFS) order — parallel to
  /// tree_.result.regions. Strictly increasing (preorder).
  std::vector<int> leaf_nodes_;
};

}  // namespace fairidx

#endif  // FAIRIDX_INDEX_KD_TREE_MAINTAINER_H_
