// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// The U x V base grid from Section 2.1 of the paper: a fixed-resolution
// tessellation of the map. Every individual's location is represented by the
// id of their enclosing cell, and all partitioners operate on ranges of grid
// cells.

#ifndef FAIRIDX_GEO_GRID_H_
#define FAIRIDX_GEO_GRID_H_

#include <vector>

#include "common/result.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace fairidx {

/// U x V grid over a bounding box. Rows run along y (row 0 at min_y), columns
/// along x (column 0 at min_x). Cell ids are row-major: id = row * V + col.
class Grid {
 public:
  /// Creates a grid with `rows` x `cols` cells over `extent`. Fails on
  /// non-positive dimensions or a degenerate extent.
  static Result<Grid> Create(int rows, int cols, const BoundingBox& extent);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int num_cells() const { return rows_ * cols_; }
  const BoundingBox& extent() const { return extent_; }

  /// Maps a point to its enclosing cell id; points outside the extent are
  /// clamped to the border cells (matching how the paper assigns every
  /// individual to some neighborhood). Total over all doubles: ±inf map
  /// to the matching border, and a NaN coordinate to row / column 0.
  int CellIdOf(const Point& p) const;

  /// Row / column of a point, individually (clamped like CellIdOf).
  int RowOf(double y) const;
  int ColOf(double x) const;

  int CellId(int row, int col) const { return row * cols_ + col; }
  int RowOfCell(int cell_id) const { return cell_id / cols_; }
  int ColOfCell(int cell_id) const { return cell_id % cols_; }

  /// Geographic bounds of a cell.
  BoundingBox CellBounds(int row, int col) const;

  /// Geographic center of a cell.
  Point CellCenter(int row, int col) const;

  /// The full grid as a CellRect: rows [0, rows) x cols [0, cols).
  CellRect FullRect() const { return CellRect{0, rows_, 0, cols_}; }

  /// Lists the cell ids inside `rect` (row-major order).
  std::vector<int> CellsInRect(const CellRect& rect) const;

 private:
  Grid(int rows, int cols, const BoundingBox& extent);

  int rows_;
  int cols_;
  BoundingBox extent_;
  double cell_width_;
  double cell_height_;
};

}  // namespace fairidx

#endif  // FAIRIDX_GEO_GRID_H_
