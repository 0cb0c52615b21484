// Tests for the base grid.

#include "geo/grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows = 4, int cols = 5) {
  return Grid::Create(rows, cols, BoundingBox{0.0, 0.0, 10.0, 8.0}).value();
}

TEST(GridTest, CreateRejectsBadInputs) {
  EXPECT_FALSE(Grid::Create(0, 5, BoundingBox{0, 0, 1, 1}).ok());
  EXPECT_FALSE(Grid::Create(5, -1, BoundingBox{0, 0, 1, 1}).ok());
  EXPECT_FALSE(Grid::Create(5, 5, BoundingBox{0, 0, 0, 1}).ok());
  EXPECT_FALSE(Grid::Create(5, 5, BoundingBox{0, 0, 1, 0}).ok());
}

TEST(GridTest, DimensionsAndCellCount) {
  const Grid grid = MakeGrid();
  EXPECT_EQ(grid.rows(), 4);
  EXPECT_EQ(grid.cols(), 5);
  EXPECT_EQ(grid.num_cells(), 20);
}

TEST(GridTest, CellIdRowMajor) {
  const Grid grid = MakeGrid();
  EXPECT_EQ(grid.CellId(0, 0), 0);
  EXPECT_EQ(grid.CellId(1, 0), 5);
  EXPECT_EQ(grid.CellId(3, 4), 19);
  EXPECT_EQ(grid.RowOfCell(7), 1);
  EXPECT_EQ(grid.ColOfCell(7), 2);
}

TEST(GridTest, PointToCellMapping) {
  const Grid grid = MakeGrid();  // 10 wide, 8 tall; cells 2.0 x 2.0.
  EXPECT_EQ(grid.CellIdOf(Point{0.5, 0.5}), grid.CellId(0, 0));
  EXPECT_EQ(grid.CellIdOf(Point{9.9, 7.9}), grid.CellId(3, 4));
  EXPECT_EQ(grid.CellIdOf(Point{2.5, 0.1}), grid.CellId(0, 1));
  EXPECT_EQ(grid.CellIdOf(Point{0.1, 2.5}), grid.CellId(1, 0));
}

TEST(GridTest, OutsidePointsClampToBorder) {
  const Grid grid = MakeGrid();
  EXPECT_EQ(grid.CellIdOf(Point{-100.0, -100.0}), grid.CellId(0, 0));
  EXPECT_EQ(grid.CellIdOf(Point{100.0, 100.0}), grid.CellId(3, 4));
}

// Coordinates with no meaningful cell still get a defined one: ±inf and
// values far beyond int range clamp to the matching border, NaN to 0.
TEST(GridTest, NonFiniteAndHugeCoordinatesClampToTheRightBorder) {
  const Grid grid = MakeGrid();  // 4 rows, 5 cols.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(grid.ColOf(kInf), 4);
  EXPECT_EQ(grid.ColOf(-kInf), 0);
  EXPECT_EQ(grid.ColOf(1e300), 4);
  EXPECT_EQ(grid.ColOf(-1e300), 0);
  EXPECT_EQ(grid.ColOf(kNan), 0);
  EXPECT_EQ(grid.RowOf(kInf), 3);
  EXPECT_EQ(grid.RowOf(-kInf), 0);
  EXPECT_EQ(grid.RowOf(1e300), 3);
  EXPECT_EQ(grid.RowOf(-1e300), 0);
  EXPECT_EQ(grid.RowOf(kNan), 0);
  EXPECT_EQ(grid.CellIdOf(Point{kInf, 1.0}), grid.CellId(0, 4));
  EXPECT_EQ(grid.CellIdOf(Point{1.0, kInf}), grid.CellId(3, 0));
  EXPECT_EQ(grid.CellIdOf(Point{kNan, kNan}), grid.CellId(0, 0));
  EXPECT_EQ(grid.CellIdOf(Point{-kInf, 1e300}), grid.CellId(3, 0));
}

// Wherever the old cast-then-clamp mapping was defined, the mapping is
// unchanged, so every stored cell id (and checksum) stays the same.
TEST(GridTest, FiniteCoordinatesMapAsCastThenClamp) {
  const Grid grid = Grid::Create(512, 384, BoundingBox{-3.5, 2.0, 7.25, 9.0})
                        .value();
  const auto cast_then_clamp = [](double t, int n) {
    return std::clamp(static_cast<int>(t), 0, n - 1);
  };
  const double cell_w = grid.extent().width() / grid.cols();
  const double cell_h = grid.extent().height() / grid.rows();
  Rng rng(5);
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.Uniform(-20.0, 25.0);
    const double y = rng.Uniform(-10.0, 20.0);
    ASSERT_EQ(grid.ColOf(x),
              cast_then_clamp((x - grid.extent().min_x) / cell_w, 384))
        << x;
    ASSERT_EQ(grid.RowOf(y),
              cast_then_clamp((y - grid.extent().min_y) / cell_h, 512))
        << y;
  }
  // Exact cell edges, both borders and the values just around them.
  for (int c = 0; c <= 384; ++c) {
    const double edge = grid.extent().min_x + c * cell_w;
    for (const double x : {std::nextafter(edge, -1e9), edge,
                           std::nextafter(edge, 1e9)}) {
      ASSERT_EQ(grid.ColOf(x),
                cast_then_clamp((x - grid.extent().min_x) / cell_w, 384))
          << x;
    }
  }
}

TEST(GridTest, MaxBoundaryLandsInLastCell) {
  const Grid grid = MakeGrid();
  EXPECT_EQ(grid.CellIdOf(Point{10.0, 8.0}), grid.CellId(3, 4));
}

TEST(GridTest, CellBoundsTileTheExtent) {
  const Grid grid = MakeGrid();
  const BoundingBox b00 = grid.CellBounds(0, 0);
  EXPECT_DOUBLE_EQ(b00.min_x, 0.0);
  EXPECT_DOUBLE_EQ(b00.max_x, 2.0);
  EXPECT_DOUBLE_EQ(b00.max_y, 2.0);
  const BoundingBox b34 = grid.CellBounds(3, 4);
  EXPECT_DOUBLE_EQ(b34.max_x, 10.0);
  EXPECT_DOUBLE_EQ(b34.max_y, 8.0);
}

TEST(GridTest, CellCenterRoundTripsToSameCell) {
  const Grid grid = MakeGrid();
  for (int r = 0; r < grid.rows(); ++r) {
    for (int c = 0; c < grid.cols(); ++c) {
      EXPECT_EQ(grid.CellIdOf(grid.CellCenter(r, c)), grid.CellId(r, c));
    }
  }
}

TEST(GridTest, FullRectCoversAllCells) {
  const Grid grid = MakeGrid();
  const CellRect full = grid.FullRect();
  EXPECT_EQ(full.num_cells(), grid.num_cells());
  EXPECT_EQ(grid.CellsInRect(full).size(), 20u);
}

TEST(GridTest, CellsInRectRowMajorOrder) {
  const Grid grid = MakeGrid();
  const std::vector<int> cells =
      grid.CellsInRect(CellRect{1, 3, 2, 4});
  EXPECT_EQ(cells, (std::vector<int>{grid.CellId(1, 2), grid.CellId(1, 3),
                                     grid.CellId(2, 2), grid.CellId(2, 3)}));
}

TEST(GridTest, EmptyRectYieldsNoCells) {
  const Grid grid = MakeGrid();
  EXPECT_TRUE(grid.CellsInRect(CellRect{2, 2, 0, 5}).empty());
}

TEST(CellRectTest, GeometryHelpers) {
  const CellRect rect{1, 4, 2, 4};
  EXPECT_EQ(rect.num_rows(), 3);
  EXPECT_EQ(rect.num_cols(), 2);
  EXPECT_EQ(rect.num_cells(), 6);
  EXPECT_FALSE(rect.empty());
  EXPECT_TRUE(rect.Contains(1, 2));
  EXPECT_FALSE(rect.Contains(4, 2));
  EXPECT_DOUBLE_EQ(rect.AspectRatio(), 1.5);
}

TEST(CellRectTest, EmptyRectProperties) {
  const CellRect rect{2, 2, 0, 5};
  EXPECT_TRUE(rect.empty());
  EXPECT_EQ(rect.AspectRatio(), 0.0);
}

TEST(BoundingBoxTest, ContainsAndClamp) {
  const BoundingBox box{0, 0, 2, 2};
  EXPECT_TRUE(box.Contains(Point{1, 1}));
  EXPECT_FALSE(box.Contains(Point{3, 1}));
  const Point clamped = box.ClampPoint(Point{5, -1});
  EXPECT_EQ(clamped.x, 2.0);
  EXPECT_EQ(clamped.y, 0.0);
  EXPECT_DOUBLE_EQ(box.Area(), 4.0);
}

}  // namespace
}  // namespace fairidx
