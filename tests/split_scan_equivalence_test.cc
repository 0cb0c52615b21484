// Differential tests for the fused split-scan engine: the incremental
// sweep (GridAggregates::SplitSweep + field masks) must be bit-identical
// to the retained naive reference on every grid, rect, axis and objective,
// and the chunked SplitAllRegions must be bit-identical to the sequential
// scan at every thread count.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "index/kd_tree.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

struct RandomInstance {
  Grid grid;
  GridAggregates aggregates;
};

// A random grid with clustered records, scores in (0,1) and non-trivial
// residuals, so every objective has real signal.
RandomInstance MakeRandomInstance(Rng& rng, int max_side = 16) {
  const int rows = 1 + static_cast<int>(rng.NextBounded(max_side));
  const int cols = 1 + static_cast<int>(rng.NextBounded(max_side));
  const Grid grid = MakeGrid(rows, cols);
  const int n = 1 + static_cast<int>(rng.NextBounded(400));
  std::vector<int> cells(n);
  std::vector<int> labels(n);
  std::vector<double> scores(n);
  std::vector<double> residuals(n);
  for (int i = 0; i < n; ++i) {
    cells[i] = static_cast<int>(rng.NextBounded(grid.num_cells()));
    labels[i] = rng.Bernoulli(0.4) ? 1 : 0;
    scores[i] = rng.NextDouble();
    residuals[i] = rng.NextDouble() * 2.0 - 1.0;
  }
  GridAggregates aggregates =
      GridAggregates::Build(grid, cells, labels, scores, residuals).value();
  return RandomInstance{grid, std::move(aggregates)};
}

// A random non-empty sub-rect of the grid.
CellRect RandomRect(Rng& rng, const Grid& grid) {
  const int r0 = static_cast<int>(rng.NextBounded(grid.rows()));
  const int r1 =
      r0 + 1 + static_cast<int>(rng.NextBounded(grid.rows() - r0));
  const int c0 = static_cast<int>(rng.NextBounded(grid.cols()));
  const int c1 =
      c0 + 1 + static_cast<int>(rng.NextBounded(grid.cols() - c0));
  return CellRect{r0, r1, c0, c1};
}

std::vector<SplitObjectiveOptions> AllObjectives() {
  std::vector<SplitObjectiveOptions> all;
  for (SplitObjectiveKind kind :
       {SplitObjectiveKind::kPaperEq9, SplitObjectiveKind::kMinimaxChild,
        SplitObjectiveKind::kWeightedSum,
        SplitObjectiveKind::kResidualBalanceEq13,
        SplitObjectiveKind::kResidualBalanceEq9,
        SplitObjectiveKind::kMedianCount}) {
    for (double compactness : {0.0, 0.3}) {
      all.push_back(SplitObjectiveOptions{kind, compactness});
    }
  }
  return all;
}

void ExpectSameSplit(const KdSplit& fused, const KdSplit& naive) {
  ASSERT_EQ(fused.valid, naive.valid);
  if (!fused.valid) return;
  EXPECT_EQ(fused.axis, naive.axis);
  EXPECT_EQ(fused.offset, naive.offset);
  // Bit-identical, not merely close: the fused sweep evaluates the exact
  // same floating-point expressions as the reference.
  EXPECT_EQ(fused.objective, naive.objective);
  EXPECT_EQ(fused.left, naive.left);
  EXPECT_EQ(fused.right, naive.right);
}

TEST(SplitScanEquivalenceTest, FusedMatchesNaiveOnRandomInstances) {
  Rng rng(2024);
  const std::vector<SplitObjectiveOptions> objectives = AllObjectives();
  for (int trial = 0; trial < 60; ++trial) {
    const RandomInstance instance = MakeRandomInstance(rng);
    const CellRect rect = RandomRect(rng, instance.grid);
    for (const SplitObjectiveOptions& options : objectives) {
      for (int axis : {0, 1}) {
        const KdSplit fused =
            FindBestSplit(instance.aggregates, rect, axis, options);
        const KdSplit naive =
            FindBestSplitNaive(instance.aggregates, rect, axis, options);
        ExpectSameSplit(fused, naive);
      }
    }
  }
}

TEST(SplitScanEquivalenceTest, QueryChildrenMatchesTwoQueries) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const RandomInstance instance = MakeRandomInstance(rng);
    const CellRect rect = RandomRect(rng, instance.grid);
    for (int axis : {0, 1}) {
      const int extent = axis == 0 ? rect.num_rows() : rect.num_cols();
      for (int offset = 1; offset < extent; ++offset) {
        RegionAggregate left, right;
        instance.aggregates.QueryChildren(rect, axis, offset,
                                          kAggregateFieldsAll, &left,
                                          &right);
        CellRect left_rect = rect;
        CellRect right_rect = rect;
        if (axis == 0) {
          left_rect.row_end = rect.row_begin + offset;
          right_rect.row_begin = rect.row_begin + offset;
        } else {
          left_rect.col_end = rect.col_begin + offset;
          right_rect.col_begin = rect.col_begin + offset;
        }
        const RegionAggregate ql = instance.aggregates.Query(left_rect);
        const RegionAggregate qr = instance.aggregates.Query(right_rect);
        EXPECT_EQ(left.count, ql.count);
        EXPECT_EQ(left.sum_labels, ql.sum_labels);
        EXPECT_EQ(left.sum_scores, ql.sum_scores);
        EXPECT_EQ(left.sum_residuals, ql.sum_residuals);
        EXPECT_EQ(left.sum_cell_abs_miscalibration,
                  ql.sum_cell_abs_miscalibration);
        EXPECT_EQ(right.count, qr.count);
        EXPECT_EQ(right.sum_labels, qr.sum_labels);
        EXPECT_EQ(right.sum_scores, qr.sum_scores);
        EXPECT_EQ(right.sum_residuals, qr.sum_residuals);
        EXPECT_EQ(right.sum_cell_abs_miscalibration,
                  qr.sum_cell_abs_miscalibration);
      }
    }
  }
}

TEST(SplitScanEquivalenceTest, FieldMaskLeavesUnmaskedFieldsZero) {
  Rng rng(11);
  const RandomInstance instance = MakeRandomInstance(rng);
  const CellRect rect = instance.grid.FullRect();
  if (rect.num_rows() < 2) GTEST_SKIP();
  RegionAggregate left, right;
  instance.aggregates.QueryChildren(rect, /*axis=*/0, /*offset=*/1,
                                    kAggregateFieldCount, &left, &right);
  EXPECT_GT(left.count + right.count, 0.0);
  EXPECT_EQ(left.sum_labels, 0.0);
  EXPECT_EQ(left.sum_scores, 0.0);
  EXPECT_EQ(left.sum_residuals, 0.0);
  EXPECT_EQ(left.sum_cell_abs_miscalibration, 0.0);
}

TEST(SplitScanEquivalenceTest, RequiredFieldsCoverEachObjective) {
  EXPECT_EQ(RequiredAggregateFields(
                {SplitObjectiveKind::kMedianCount, 0.0}),
            kAggregateFieldCount);
  EXPECT_EQ(RequiredAggregateFields({SplitObjectiveKind::kPaperEq9, 0.0}),
            kAggregateFieldLabels | kAggregateFieldScores);
  EXPECT_EQ(RequiredAggregateFields({SplitObjectiveKind::kPaperEq9, 0.5}),
            kAggregateFieldLabels | kAggregateFieldScores |
                kAggregateFieldCount);
  EXPECT_EQ(RequiredAggregateFields(
                {SplitObjectiveKind::kResidualBalanceEq13, 0.0}),
            kAggregateFieldCount | kAggregateFieldResiduals);
  EXPECT_EQ(RequiredAggregateFields(
                {SplitObjectiveKind::kResidualBalanceEq9, 0.0}),
            kAggregateFieldResiduals);
}

TEST(SplitScanEquivalenceTest, TreeBuildMatchesNaiveEngine) {
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const RandomInstance instance = MakeRandomInstance(rng);
    for (AxisPolicy policy :
         {AxisPolicy::kAlternate, AxisPolicy::kBestObjective}) {
      KdTreeOptions fused;
      fused.height = 6;
      fused.axis_policy = policy;
      KdTreeOptions naive = fused;
      naive.scan_engine = SplitScanEngine::kNaiveReference;
      const auto a =
          BuildKdTreePartition(instance.grid, instance.aggregates, fused);
      const auto b =
          BuildKdTreePartition(instance.grid, instance.aggregates, naive);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->num_split_scans, b->num_split_scans);
      EXPECT_EQ(a->result.regions, b->result.regions);
      EXPECT_EQ(a->result.partition.cell_to_region(),
                b->result.partition.cell_to_region());
    }
  }
}

TEST(SplitScanEquivalenceTest, ParallelSplitAllRegionsIsDeterministic) {
  Rng rng(77);
  const RandomInstance instance = MakeRandomInstance(rng, /*max_side=*/24);
  std::vector<CellRect> regions = {instance.grid.FullRect()};
  for (int level = 0; level < 4; ++level) {
    const int axis = level % 2;
    const std::vector<CellRect> sequential =
        SplitAllRegions(instance.aggregates, regions, axis, {});
    for (int threads : {2, 3, 5}) {
      const std::vector<CellRect> parallel =
          SplitAllRegions(instance.aggregates, regions, axis, {},
                          AxisPolicy::kAlternate, threads);
      EXPECT_EQ(parallel, sequential) << "threads=" << threads;
    }
    regions = sequential;
  }
}

TEST(SplitScanEquivalenceTest, SplitAllRegionsHonorsAxisPolicy) {
  // All miscalibration sits in row 0, so the only row cut is maximally
  // unbalanced while a central column cut balances it perfectly.
  // kBestObjective must therefore cut columns even when the level's axis
  // prefers rows (the old behaviour hardcoded the fallback scan and
  // silently ignored the policy).
  const Grid grid = MakeGrid(2, 8);
  std::vector<int> cells;
  std::vector<int> labels;
  std::vector<double> scores;
  for (int c = 0; c < 8; ++c) {
    cells.push_back(grid.CellId(0, c));
    scores.push_back(0.5);
    labels.push_back(1);
  }
  const GridAggregates agg =
      GridAggregates::Build(grid, cells, labels, scores).value();
  const std::vector<CellRect> regions = {grid.FullRect()};

  const std::vector<CellRect> alternate =
      SplitAllRegions(agg, regions, /*axis=*/0, {}, AxisPolicy::kAlternate);
  ASSERT_EQ(alternate.size(), 2u);
  EXPECT_EQ(alternate[0].num_cols(), 8);  // Row cut: full-width children.

  const std::vector<CellRect> best = SplitAllRegions(
      agg, regions, /*axis=*/0, {}, AxisPolicy::kBestObjective);
  ASSERT_EQ(best.size(), 2u);
  const KdSplit expected =
      FindBestSplitAnyAxis(agg, grid.FullRect(), /*preferred_axis=*/0, {});
  EXPECT_EQ(expected.axis, 1);  // The column cut wins on this data.
  EXPECT_EQ(best[0], expected.left);
  EXPECT_EQ(best[1], expected.right);
}

}  // namespace
}  // namespace fairidx
