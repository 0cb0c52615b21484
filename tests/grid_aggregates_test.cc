// Tests for per-cell aggregates and prefix-sum range queries.

#include "geo/grid_aggregates.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0.0, 0.0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

TEST(GridAggregatesTest, RejectsMismatchedInputs) {
  const Grid grid = MakeGrid(2, 2);
  EXPECT_FALSE(GridAggregates::Build(grid, {0, 1}, {1}, {0.5, 0.5}).ok());
  EXPECT_FALSE(GridAggregates::Build(grid, {0}, {1}, {0.5, 0.5}).ok());
  EXPECT_FALSE(
      GridAggregates::Build(grid, {0}, {1}, {0.5}, {0.1, 0.2}).ok());
}

TEST(GridAggregatesTest, RejectsBadCellsAndLabels) {
  const Grid grid = MakeGrid(2, 2);
  EXPECT_FALSE(GridAggregates::Build(grid, {4}, {1}, {0.5}).ok());
  EXPECT_FALSE(GridAggregates::Build(grid, {-1}, {1}, {0.5}).ok());
  EXPECT_FALSE(GridAggregates::Build(grid, {0}, {2}, {0.5}).ok());
}

// Finite but huge values used to pass: two scores of 1e308 overflow the
// prefix sums to inf, and every inf - inf corner then reads NaN, even for
// a query of an untouched cell. Scores must lie in [0, 1] and residuals
// within kMaxAbsResidual, each rejected with one line.
TEST(GridAggregatesTest, RejectsOutOfRangeScoresAndResiduals) {
  const Grid grid = MakeGrid(4, 4);
  const Status huge =
      GridAggregates::Build(grid, {0, 0, 5}, {1, 0, 1}, {1e308, 1e308, 0.5})
          .status();
  EXPECT_EQ(huge.code(), StatusCode::kInvalidArgument) << huge;
  EXPECT_EQ(huge.message().find('\n'), std::string::npos) << huge;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double score :
       {-0.25, 1.0 + 1e-12, 1e308, -1e308, -1e-320, inf, std::nan("")}) {
    EXPECT_FALSE(GridAggregates::Build(grid, {0}, {1}, {score}).ok())
        << score;
  }
  for (const double residual : {2.0 + 1e-12, -3.0, 1e308, -inf,
                                 std::nan("")}) {
    EXPECT_FALSE(
        GridAggregates::Build(grid, {0}, {1}, {0.5}, {residual}).ok())
        << residual;
  }
  // The bounds themselves are accepted, and -0.0 is a score of zero.
  EXPECT_TRUE(GridAggregates::Build(grid, {0, 1, 2, 3}, {0, 1, 0, 1},
                                    {0.0, 1.0, -0.0, 1e-320},
                                    {-GridAggregates::kMaxAbsResidual,
                                     GridAggregates::kMaxAbsResidual, 0.0,
                                     -1e-320})
                  .ok());
}

TEST(GridAggregatesTest, TotalMatchesInputs) {
  const Grid grid = MakeGrid(3, 3);
  const auto agg =
      GridAggregates::Build(grid, {0, 4, 8, 4}, {1, 0, 1, 1},
                            {0.9, 0.2, 0.8, 0.7});
  ASSERT_TRUE(agg.ok());
  const RegionAggregate total = agg->Total();
  EXPECT_DOUBLE_EQ(total.count, 4.0);
  EXPECT_DOUBLE_EQ(total.sum_labels, 3.0);
  EXPECT_NEAR(total.sum_scores, 2.6, 1e-12);
}

TEST(GridAggregatesTest, SingleCellQuery) {
  const Grid grid = MakeGrid(3, 3);
  const auto agg =
      GridAggregates::Build(grid, {4, 4}, {1, 0}, {0.6, 0.4});
  ASSERT_TRUE(agg.ok());
  const RegionAggregate cell = agg->Cell(1, 1);
  EXPECT_DOUBLE_EQ(cell.count, 2.0);
  EXPECT_DOUBLE_EQ(cell.sum_labels, 1.0);
  EXPECT_DOUBLE_EQ(cell.sum_scores, 1.0);
  EXPECT_DOUBLE_EQ(agg->Cell(0, 0).count, 0.0);
}

TEST(GridAggregatesTest, DefaultResidualIsScoreMinusLabel) {
  const Grid grid = MakeGrid(2, 2);
  const auto agg = GridAggregates::Build(grid, {0, 1}, {1, 0}, {0.3, 0.8});
  ASSERT_TRUE(agg.ok());
  // (0.3 - 1) + (0.8 - 0) = 0.1
  EXPECT_NEAR(agg->Total().sum_residuals, 0.1, 1e-12);
}

TEST(GridAggregatesTest, ExplicitResidualsOverrideDefault) {
  const Grid grid = MakeGrid(2, 2);
  const auto agg =
      GridAggregates::Build(grid, {0, 1}, {1, 0}, {0.3, 0.8}, {1.0, 2.0});
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->Total().sum_residuals, 3.0);
}

TEST(GridAggregatesTest, CellAbsMiscalibrationDoesNotCancel) {
  // Two cells with opposite-sign bias: the signed region miscalibration
  // cancels to 0 but the per-cell absolute sum does not.
  const Grid grid = MakeGrid(1, 2);
  const auto agg = GridAggregates::Build(grid, {0, 1}, {1, 0}, {0.0, 1.0});
  ASSERT_TRUE(agg.ok());
  const RegionAggregate total = agg->Total();
  EXPECT_NEAR(total.WeightedMiscalibration(), 0.0, 1e-12);
  EXPECT_NEAR(total.sum_cell_abs_miscalibration, 2.0, 1e-12);
}

TEST(GridAggregatesTest, CellAbsMiscalibrationBoundsSubRegions) {
  Rng rng(123);
  const Grid grid = MakeGrid(6, 6);
  const int n = 150;
  std::vector<int> cells(n);
  std::vector<int> labels(n);
  std::vector<double> scores(n);
  for (int i = 0; i < n; ++i) {
    cells[i] = static_cast<int>(rng.NextBounded(grid.num_cells()));
    labels[i] = rng.Bernoulli(0.5) ? 1 : 0;
    scores[i] = rng.NextDouble();
  }
  const auto agg = GridAggregates::Build(grid, cells, labels, scores);
  ASSERT_TRUE(agg.ok());
  // Every sub-rect's weighted miscalibration is bounded by its (and hence
  // any enclosing rect's) per-cell absolute sum.
  for (int trial = 0; trial < 20; ++trial) {
    const int r0 = static_cast<int>(rng.NextBounded(6));
    const int r1 = r0 + 1 + static_cast<int>(rng.NextBounded(6 - r0));
    const int c0 = static_cast<int>(rng.NextBounded(6));
    const int c1 = c0 + 1 + static_cast<int>(rng.NextBounded(6 - c0));
    const RegionAggregate region = agg->Query(CellRect{r0, r1, c0, c1});
    EXPECT_LE(region.WeightedMiscalibration(),
              region.sum_cell_abs_miscalibration + 1e-9);
  }
}

TEST(GridAggregatesTest, EmptyRectQueryIsZero) {
  const Grid grid = MakeGrid(2, 2);
  const auto agg = GridAggregates::Build(grid, {0}, {1}, {0.5});
  ASSERT_TRUE(agg.ok());
  const RegionAggregate empty = agg->Query(CellRect{1, 1, 0, 2});
  EXPECT_EQ(empty.count, 0.0);
  EXPECT_EQ(empty.Miscalibration(), 0.0);
  EXPECT_EQ(empty.MeanLabel(), 0.0);
}

TEST(RegionAggregateTest, DerivedQuantities) {
  RegionAggregate agg;
  agg.count = 4.0;
  agg.sum_labels = 3.0;
  agg.sum_scores = 2.0;
  agg.sum_residuals = -1.0;
  EXPECT_DOUBLE_EQ(agg.MeanLabel(), 0.75);
  EXPECT_DOUBLE_EQ(agg.MeanScore(), 0.5);
  EXPECT_DOUBLE_EQ(agg.Miscalibration(), 0.25);
  EXPECT_DOUBLE_EQ(agg.WeightedMiscalibration(), 1.0);
  EXPECT_DOUBLE_EQ(agg.AbsResidualSum(), 1.0);
}

TEST(RegionAggregateTest, PlusEqualsAccumulates) {
  RegionAggregate a;
  a.count = 1.0;
  a.sum_labels = 1.0;
  RegionAggregate b;
  b.count = 2.0;
  b.sum_scores = 0.5;
  a += b;
  EXPECT_DOUBLE_EQ(a.count, 3.0);
  EXPECT_DOUBLE_EQ(a.sum_labels, 1.0);
  EXPECT_DOUBLE_EQ(a.sum_scores, 0.5);
}

// Property: prefix-sum range queries agree with brute-force accumulation for
// random data and random rectangles.
class GridAggregatesPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GridAggregatesPropertyTest, RangeQueriesMatchBruteForce) {
  Rng rng(GetParam());
  const int rows = 5 + static_cast<int>(rng.NextBounded(8));
  const int cols = 5 + static_cast<int>(rng.NextBounded(8));
  const Grid grid = MakeGrid(rows, cols);

  const int n = 200;
  std::vector<int> cells(n);
  std::vector<int> labels(n);
  std::vector<double> scores(n);
  for (int i = 0; i < n; ++i) {
    cells[i] = static_cast<int>(rng.NextBounded(grid.num_cells()));
    labels[i] = rng.Bernoulli(0.4) ? 1 : 0;
    scores[i] = rng.NextDouble();
  }
  const auto agg = GridAggregates::Build(grid, cells, labels, scores);
  ASSERT_TRUE(agg.ok());

  for (int trial = 0; trial < 25; ++trial) {
    const int r0 = static_cast<int>(rng.NextBounded(rows));
    const int r1 = r0 + 1 + static_cast<int>(rng.NextBounded(rows - r0));
    const int c0 = static_cast<int>(rng.NextBounded(cols));
    const int c1 = c0 + 1 + static_cast<int>(rng.NextBounded(cols - c0));
    const CellRect rect{r0, r1, c0, c1};

    RegionAggregate expected;
    for (int i = 0; i < n; ++i) {
      const int row = grid.RowOfCell(cells[i]);
      const int col = grid.ColOfCell(cells[i]);
      if (rect.Contains(row, col)) {
        expected.count += 1.0;
        expected.sum_labels += labels[i];
        expected.sum_scores += scores[i];
        expected.sum_residuals += scores[i] - labels[i];
      }
    }
    const RegionAggregate actual = agg->Query(rect);
    EXPECT_NEAR(actual.count, expected.count, 1e-9);
    EXPECT_NEAR(actual.sum_labels, expected.sum_labels, 1e-9);
    EXPECT_NEAR(actual.sum_scores, expected.sum_scores, 1e-9);
    EXPECT_NEAR(actual.sum_residuals, expected.sum_residuals, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridAggregatesPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace fairidx
