#include "geo/grid.h"

namespace fairidx {

Result<Grid> Grid::Create(int rows, int cols, const BoundingBox& extent) {
  if (rows <= 0 || cols <= 0) {
    return InvalidArgumentError("grid dimensions must be positive");
  }
  if (extent.width() <= 0.0 || extent.height() <= 0.0) {
    return InvalidArgumentError("grid extent must have positive area");
  }
  return Grid(rows, cols, extent);
}

Grid::Grid(int rows, int cols, const BoundingBox& extent)
    : rows_(rows),
      cols_(cols),
      extent_(extent),
      cell_width_(extent.width() / cols),
      cell_height_(extent.height() / rows) {}

namespace {

// Index of the cell holding offset `t` (in cells) along an axis of `n`
// cells. Clamps in double space before the cast, which is UB for NaN,
// infinities and anything beyond int. Finite in-range offsets truncate
// exactly as a plain cast does; below the axis (or NaN) is cell 0.
int ClampedCellIndex(double t, int n) {
  if (!(t >= 1.0)) return 0;
  if (t >= n) return n - 1;
  return static_cast<int>(t);
}

}  // namespace

int Grid::RowOf(double y) const {
  return ClampedCellIndex((y - extent_.min_y) / cell_height_, rows_);
}

int Grid::ColOf(double x) const {
  return ClampedCellIndex((x - extent_.min_x) / cell_width_, cols_);
}

int Grid::CellIdOf(const Point& p) const {
  return CellId(RowOf(p.y), ColOf(p.x));
}

BoundingBox Grid::CellBounds(int row, int col) const {
  BoundingBox box;
  box.min_x = extent_.min_x + col * cell_width_;
  box.max_x = box.min_x + cell_width_;
  box.min_y = extent_.min_y + row * cell_height_;
  box.max_y = box.min_y + cell_height_;
  return box;
}

Point Grid::CellCenter(int row, int col) const {
  const BoundingBox box = CellBounds(row, col);
  return Point{(box.min_x + box.max_x) / 2.0, (box.min_y + box.max_y) / 2.0};
}

std::vector<int> Grid::CellsInRect(const CellRect& rect) const {
  std::vector<int> out;
  if (rect.empty()) return out;
  out.reserve(static_cast<size_t>(rect.num_cells()));
  for (int r = rect.row_begin; r < rect.row_end; ++r) {
    for (int c = rect.col_begin; c < rect.col_end; ++c) {
      out.push_back(CellId(r, c));
    }
  }
  return out;
}

}  // namespace fairidx
