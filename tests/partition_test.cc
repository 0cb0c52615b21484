// Tests for the Partition abstraction.

#include "index/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows = 4, int cols = 4) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

TEST(PartitionTest, FromCellMapCompactsIds) {
  const auto partition =
      Partition::FromCellMap({7, 7, 42, 42, 7, 9}).value();
  EXPECT_EQ(partition.num_regions(), 3);
  // First-appearance order: 7 -> 0, 42 -> 1, 9 -> 2.
  EXPECT_EQ(partition.cell_to_region(),
            (std::vector<int>{0, 0, 1, 1, 0, 2}));
}

TEST(PartitionTest, FromCellMapRejectsBadInput) {
  EXPECT_FALSE(Partition::FromCellMap({}).ok());
  EXPECT_FALSE(Partition::FromCellMap({0, -1}).ok());
}

TEST(PartitionTest, FromRectsCoversGrid) {
  const Grid grid = MakeGrid();
  const std::vector<CellRect> rects = {
      CellRect{0, 4, 0, 2},
      CellRect{0, 4, 2, 4},
  };
  const auto partition = Partition::FromRects(grid, rects).value();
  EXPECT_EQ(partition.num_regions(), 2);
  EXPECT_EQ(partition.RegionOfCell(grid.CellId(0, 0)), 0);
  EXPECT_EQ(partition.RegionOfCell(grid.CellId(3, 3)), 1);
}

TEST(PartitionTest, FromRectsDetectsOverlap) {
  const Grid grid = MakeGrid();
  const std::vector<CellRect> rects = {
      CellRect{0, 4, 0, 3},
      CellRect{0, 4, 2, 4},  // Overlaps column 2.
  };
  EXPECT_FALSE(Partition::FromRects(grid, rects).ok());
}

TEST(PartitionTest, FromRectsDetectsGap) {
  const Grid grid = MakeGrid();
  const std::vector<CellRect> rects = {
      CellRect{0, 4, 0, 2},
      CellRect{0, 3, 2, 4},  // Misses row 3 of the right half.
  };
  EXPECT_FALSE(Partition::FromRects(grid, rects).ok());
}

TEST(PartitionTest, FromRectsDetectsOutOfBounds) {
  const Grid grid = MakeGrid();
  EXPECT_FALSE(
      Partition::FromRects(grid, {CellRect{0, 5, 0, 4}}).ok());
}

TEST(PartitionTest, FromRectsRejectsInvertedRects) {
  // Inverted ranges are empty rects: they cover nothing (so the grid has a
  // gap) and must never touch memory.
  const Grid grid = MakeGrid();
  EXPECT_FALSE(
      Partition::FromRects(grid, {CellRect{0, 4, 3, 1}}).ok());
  EXPECT_FALSE(
      Partition::FromRects(grid, {CellRect{3, 1, 0, 4}}).ok());
  // Even alongside full coverage, an extra empty rect leaves the area
  // accounting consistent and the partition valid.
  const auto partition = Partition::FromRects(
      grid, {CellRect{0, 4, 0, 4}, CellRect{2, 2, 0, 4}});
  EXPECT_TRUE(partition.ok());
  EXPECT_EQ(partition->num_regions(), 2);
}

// The failure-mode diagnostics are part of the contract: callers (and the
// checkpoint recovery path, which wraps them) surface these one-liners
// verbatim, so the wording and the named cell/rect are pinned here.
TEST(PartitionTest, FromRectsOutOfGridDiagnosticNamesTheRect) {
  const Grid grid = MakeGrid();
  const auto result = Partition::FromRects(grid, {CellRect{0, 5, 0, 4}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "Partition: rect outside grid: rows[0,5) cols[0,4)");
}

TEST(PartitionTest, FromRectsOverlapDiagnosticNamesFirstDoubledCell) {
  const Grid grid = MakeGrid();
  // Rect 0 owns cols [0,3); rect 1 re-claims col 2. The first doubly
  // assigned cell in the diagnostic re-scan is (row 0, col 2) = cell 2.
  const auto result = Partition::FromRects(
      grid, {CellRect{0, 4, 0, 3}, CellRect{0, 4, 2, 4}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "Partition: overlapping rects at cell 2");
}

TEST(PartitionTest, FromRectsGapDiagnosticNamesFirstUncoveredCell) {
  const Grid grid = MakeGrid();
  // The right half stops at row 3; the first hole is (row 3, col 2) =
  // cell 14.
  const auto result = Partition::FromRects(
      grid, {CellRect{0, 4, 0, 2}, CellRect{0, 3, 2, 4}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "Partition: uncovered cell 14");
}

TEST(PartitionTest, FromRectsRejectsEmptyRectList) {
  const Grid grid = MakeGrid();
  const auto result = Partition::FromRects(grid, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "Partition: no rects");
}

// Deterministic guillotine tiling of the grid into `target` disjoint
// rects, for the parallel/patch differential tests below.
std::vector<CellRect> RandomTiling(Rng& rng, const Grid& grid, int target) {
  // A grid can hold at most one rect per cell; an uncapped target would
  // spin forever once every rect is 1x1.
  target = std::min(target, grid.num_cells());
  std::vector<CellRect> rects = {grid.FullRect()};
  while (static_cast<int>(rects.size()) < target) {
    const size_t pick = rng.NextBounded(rects.size());
    const CellRect rect = rects[pick];
    const bool row_split =
        rect.num_rows() > 1 &&
        (rect.num_cols() <= 1 || rng.Bernoulli(0.5));
    if (!row_split && rect.num_cols() <= 1) continue;  // 1x1: try another.
    CellRect a = rect;
    CellRect b = rect;
    if (row_split) {
      const int cut = rect.row_begin + 1 +
                      static_cast<int>(rng.NextBounded(
                          static_cast<uint64_t>(rect.num_rows() - 1)));
      a.row_end = cut;
      b.row_begin = cut;
    } else {
      const int cut = rect.col_begin + 1 +
                      static_cast<int>(rng.NextBounded(
                          static_cast<uint64_t>(rect.num_cols() - 1)));
      a.col_end = cut;
      b.col_begin = cut;
    }
    rects[pick] = a;
    rects.push_back(b);
  }
  return rects;
}

// Independent oracle for a valid tiling: each cell's region is the index
// of the rect that contains it.
std::vector<int> ContainingRectOracle(const Grid& grid,
                                      const std::vector<CellRect>& rects) {
  std::vector<int> oracle(static_cast<size_t>(grid.num_cells()), -1);
  for (int r = 0; r < grid.rows(); ++r) {
    for (int c = 0; c < grid.cols(); ++c) {
      for (size_t i = 0; i < rects.size(); ++i) {
        if (rects[i].Contains(r, c)) {
          oracle[static_cast<size_t>(grid.CellId(r, c))] =
              static_cast<int>(i);
          break;
        }
      }
    }
  }
  return oracle;
}

TEST(PartitionTest, ParallelFromRectsIsBitIdenticalToSerial) {
  // A 300x220 random 512-rect tiling: rects of every shape, many spanning
  // hundreds of rows. The row-segment fill must match the per-cell oracle.
  Rng rng(517);
  const Grid grid = MakeGrid(300, 220);
  const std::vector<CellRect> rects = RandomTiling(rng, grid, 512);
  const Partition partition = Partition::FromRects(grid, rects).value();
  EXPECT_EQ(partition.cell_to_region(), ContainingRectOracle(grid, rects));
  EXPECT_EQ(partition.num_regions(), 512);
}

TEST(PartitionTest, ParallelFromRectsRejectsSameInvalidInputs) {
  // The hot path's area accounting must not accept an overlap or a gap;
  // the cold path names the first offending cell.
  const Grid grid = MakeGrid(4, 4);
  const auto overlap = Partition::FromRects(
      grid, {CellRect{0, 4, 0, 3}, CellRect{0, 4, 2, 4}});
  ASSERT_FALSE(overlap.ok());
  EXPECT_EQ(overlap.status().message(),
            "Partition: overlapping rects at cell 2");
  const auto gap = Partition::FromRects(
      grid, {CellRect{0, 4, 0, 2}, CellRect{0, 3, 2, 4}});
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().message(), "Partition: uncovered cell 14");
}

TEST(PartitionTest, DiffRectsSkipsOnlyUnchangedPositions) {
  const std::vector<CellRect> old_rects = {
      CellRect{0, 2, 0, 4}, CellRect{2, 4, 0, 2}, CellRect{2, 4, 2, 4}};
  // Position 0 unchanged; 1 and 2 swap rects (same rects, shifted ids).
  const std::vector<CellRect> new_rects = {
      CellRect{0, 2, 0, 4}, CellRect{2, 4, 2, 4}, CellRect{2, 4, 0, 2}};
  const auto plan = Partition::DiffRects(old_rects, new_rects);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].region, 1);
  EXPECT_TRUE(plan[0].rect == new_rects[1]);
  EXPECT_EQ(plan[1].region, 2);
  EXPECT_TRUE(plan[1].rect == new_rects[2]);
  // Identical lists need no writes at all.
  EXPECT_TRUE(Partition::DiffRects(old_rects, old_rects).empty());
}

// The patch contract: starting from a cell map equal to
// FromRects(old_rects), ApplyRectPatch(DiffRects(old, new)) must land
// bitwise on FromRects(new_rects) — including when region ids shift
// because the list grew, shrank, or reordered.
void ExpectPatchMatchesFromRects(const Grid& grid,
                                 const std::vector<CellRect>& old_rects,
                                 const std::vector<CellRect>& new_rects) {
  Partition patched = Partition::FromRects(grid, old_rects).value();
  patched.ApplyRectPatch(grid.cols(),
                         Partition::DiffRects(old_rects, new_rects),
                         static_cast<int>(new_rects.size()));
  const Partition rebuilt = Partition::FromRects(grid, new_rects).value();
  EXPECT_EQ(patched.cell_to_region(), rebuilt.cell_to_region());
  EXPECT_EQ(patched.num_regions(), rebuilt.num_regions());
}

TEST(PartitionTest, ApplyRectPatchMatchesFromRectsOnLocalChange) {
  const Grid grid = MakeGrid(8, 8);
  // Split region 3 horizontally: positions 0-2 keep their (rect, id)
  // pairs, position 3 shrinks, the new half lands at the end.
  const std::vector<CellRect> old_rects = {
      CellRect{0, 4, 0, 4}, CellRect{0, 4, 4, 8}, CellRect{4, 8, 0, 4},
      CellRect{4, 8, 4, 8}};
  const std::vector<CellRect> new_rects = {
      CellRect{0, 4, 0, 4}, CellRect{0, 4, 4, 8}, CellRect{4, 8, 0, 4},
      CellRect{4, 6, 4, 8}, CellRect{6, 8, 4, 8}};
  ExpectPatchMatchesFromRects(grid, old_rects, new_rects);
}

TEST(PartitionTest, ApplyRectPatchMatchesFromRectsWhenIdsShift) {
  const Grid grid = MakeGrid(8, 8);
  // Merge regions 0 and 2 (the left half): the list shrinks and every
  // position from 1 on holds a different (rect, id) pair, so the plan
  // rewrites all surviving positions — compaction-aware, still correct.
  const std::vector<CellRect> old_rects = {
      CellRect{0, 4, 0, 4}, CellRect{0, 4, 4, 8}, CellRect{4, 8, 0, 4},
      CellRect{4, 8, 4, 8}};
  const std::vector<CellRect> new_rects = {
      CellRect{0, 8, 0, 4}, CellRect{0, 4, 4, 8}, CellRect{4, 8, 4, 8}};
  ExpectPatchMatchesFromRects(grid, old_rects, new_rects);
}

TEST(PartitionTest, ApplyRectPatchMatchesFromRectsOnRandomRetilings) {
  // Randomized differential: re-tile a sub-rect of a random tiling and
  // splice the replacement in at shifted ids, many times.
  Rng rng(91);
  const Grid grid = MakeGrid(32, 32);
  for (int round = 0; round < 25; ++round) {
    const std::vector<CellRect> old_rects = RandomTiling(rng, grid, 40);
    // Replace one rect with a fresh tiling of itself (possibly 1 rect, a
    // pure keep), appended at the tail so later ids shift.
    const size_t victim = rng.NextBounded(old_rects.size());
    std::vector<CellRect> new_rects;
    for (size_t i = 0; i < old_rects.size(); ++i) {
      if (i != victim) new_rects.push_back(old_rects[i]);
    }
    const CellRect target = old_rects[victim];
    std::vector<CellRect> replacement = {target};
    if (target.num_cells() > 1) {
      Grid sub = Grid::Create(target.num_rows(), target.num_cols(),
                              BoundingBox{0, 0, 1, 1})
                     .value();
      replacement = RandomTiling(rng, sub, 4);
      for (CellRect& rect : replacement) {
        rect.row_begin += target.row_begin;
        rect.row_end += target.row_begin;
        rect.col_begin += target.col_begin;
        rect.col_end += target.col_begin;
      }
    }
    new_rects.insert(new_rects.end(), replacement.begin(),
                     replacement.end());
    ExpectPatchMatchesFromRects(grid, old_rects, new_rects);
  }
}

TEST(PartitionTest, SinglePartition) {
  const Partition partition = Partition::Single(9);
  EXPECT_EQ(partition.num_regions(), 1);
  EXPECT_EQ(partition.num_cells(), 9);
  for (int cell = 0; cell < 9; ++cell) {
    EXPECT_EQ(partition.RegionOfCell(cell), 0);
  }
}

TEST(PartitionTest, RegionCellsAndSizes) {
  const auto partition = Partition::FromCellMap({0, 1, 0, 1}).value();
  const auto cells = partition.RegionCells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(cells[1], (std::vector<int>{1, 3}));
  EXPECT_EQ(partition.RegionSizes(), (std::vector<int>{2, 2}));
}

TEST(PartitionTest, RefinementDetection) {
  const auto coarse = Partition::FromCellMap({0, 0, 1, 1}).value();
  const auto fine = Partition::FromCellMap({0, 1, 2, 2}).value();
  EXPECT_TRUE(coarse.IsRefinedBy(fine));
  EXPECT_FALSE(fine.IsRefinedBy(coarse));
  // Every partition refines itself.
  EXPECT_TRUE(coarse.IsRefinedBy(coarse));
}

TEST(PartitionTest, CrossCuttingPartitionIsNotRefinement) {
  const auto a = Partition::FromCellMap({0, 0, 1, 1}).value();
  const auto b = Partition::FromCellMap({0, 1, 0, 1}).value();
  EXPECT_FALSE(a.IsRefinedBy(b));
}

TEST(PartitionTest, RefinementRequiresSameCellCount) {
  const auto a = Partition::FromCellMap({0, 0}).value();
  const auto b = Partition::FromCellMap({0, 0, 1}).value();
  EXPECT_FALSE(a.IsRefinedBy(b));
}

}  // namespace
}  // namespace fairidx
