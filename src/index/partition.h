// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// A Partition is a complete, non-overlapping assignment of every base-grid
// cell to a neighborhood (region) id — the output type of every spatial
// partitioner in fairidx and the input to ENCE evaluation.

#ifndef FAIRIDX_INDEX_PARTITION_H_
#define FAIRIDX_INDEX_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "geo/grid.h"
#include "geo/rect.h"

namespace fairidx {

/// Complete disjoint partition of the grid's cells into regions 0..k-1.
class Partition {
 public:
  /// Builds from a per-cell region map. Every cell must have a non-negative
  /// region; ids are compacted to 0..k-1 preserving first-appearance order.
  static Result<Partition> FromCellMap(std::vector<int> cell_to_region);

  /// Builds from disjoint rectangles that exactly cover `grid`. Region i is
  /// rects[i]. Fails on overlap or gaps, with a one-line diagnostic naming
  /// the first offending cell (or the out-of-grid rect).
  static Result<Partition> FromRects(const Grid& grid,
                                     const std::vector<CellRect>& rects);

  /// One entry of a cell-map patch: every cell of `rect` becomes `region`.
  struct RectAssignment {
    CellRect rect;
    int region = 0;
  };

  /// Trusted in-place patch: applies every assignment (row-major over
  /// `cols` columns) and sets the region count to `num_regions`. No
  /// completeness or range checking — the caller must guarantee that after
  /// the patch every cell holds an id in [0, num_regions) and every id
  /// appears, i.e. that the result equals FromRects over the full new rect
  /// list. DiffRects builds exactly such a patch; the tree maintainers use
  /// it to publish splices in O(changed area) instead of O(grid)
  /// (tests/partition_test.cc pins patched == FromRects bit for bit).
  void ApplyRectPatch(int cols,
                      const std::vector<RectAssignment>& assignments,
                      int num_regions);

  /// The minimal ApplyRectPatch plan that rewrites a cell map currently
  /// equal to FromRects(old_rects) into FromRects(new_rects), assuming
  /// both lists are disjoint exact tilings of the same grid: position p
  /// needs a write unless new_rects[p] == old_rects[p] (same rect at the
  /// same id — its cells already hold p, and no other new rect's write can
  /// touch them because new rects are disjoint). Ids may shift and the
  /// lists may differ in length; the plan's cost is O(area of changed
  /// positions), which is what makes splice publication O(changed).
  static std::vector<RectAssignment> DiffRects(
      const std::vector<CellRect>& old_rects,
      const std::vector<CellRect>& new_rects);

  /// The trivial one-region partition of an n-cell grid.
  static Partition Single(int num_cells);

  int num_regions() const { return num_regions_; }
  int num_cells() const { return static_cast<int>(cell_to_region_.size()); }
  int RegionOfCell(int cell) const { return cell_to_region_[cell]; }
  const std::vector<int>& cell_to_region() const { return cell_to_region_; }

  /// The cell map as row-major unsigned 32-bit region ids, viewing the SAME
  /// storage as cell_to_region() — no copy, no re-derivation. Region ids
  /// are always in [0, num_regions), so the signed/unsigned reinterpretation
  /// is value-preserving; the serving layer's PointLookupIndex serves point
  /// lookups straight off this view instead of re-running the FromRects
  /// cell-assignment loop (tests/point_lookup_test.cc pins the pointer
  /// identity).
  Span<const uint32_t> CellRegionIds() const;

  /// Cells of each region, in cell-id order.
  std::vector<std::vector<int>> RegionCells() const;

  /// Number of cells per region.
  std::vector<int> RegionSizes() const;

  /// True if `finer` subdivides this partition (every finer region is fully
  /// inside one of this partition's regions) — the premise of Theorem 2.
  bool IsRefinedBy(const Partition& finer) const;

 private:
  // The tree maintainers patch subtree re-splits in place — same-size ones
  // via AssignRect, leaf-count-changing splices via ApplyRectPatch —
  // keeping publication O(drifted area) instead of a full FromRects; they
  // guarantee the partition invariants across their patches.
  friend class KdTreeMaintainer;
  friend class QuadTreeMaintainer;

  Partition(std::vector<int> cell_to_region, int num_regions)
      : cell_to_region_(std::move(cell_to_region)),
        num_regions_(num_regions) {}

  /// Trusted in-place reassignment: marks every cell of `rect` (row-major
  /// over `cols` columns) as `region`. Callers preserve completeness and
  /// id compactness.
  void AssignRect(int cols, const CellRect& rect, int region);

  std::vector<int> cell_to_region_;
  int num_regions_;
};

/// A partitioner's output: the partition plus (when the algorithm is
/// rectangle-based) the region rectangles, indexed by region id.
struct PartitionResult {
  Partition partition = Partition::Single(1);
  /// Empty when the partitioner is not rectangle-based (e.g. Voronoi zips).
  std::vector<CellRect> regions;
};

}  // namespace fairidx

#endif  // FAIRIDX_INDEX_PARTITION_H_
