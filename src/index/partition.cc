#include "index/partition.h"

#include <algorithm>
#include <map>

namespace fairidx {

Result<Partition> Partition::FromCellMap(std::vector<int> cell_to_region) {
  if (cell_to_region.empty()) {
    return InvalidArgumentError("Partition: empty cell map");
  }
  std::map<int, int> compact;
  for (int region : cell_to_region) {
    if (region < 0) {
      return InvalidArgumentError("Partition: unassigned (negative) cell");
    }
  }
  int next = 0;
  for (int& region : cell_to_region) {
    auto [it, inserted] = compact.emplace(region, next);
    if (inserted) ++next;
    region = it->second;
  }
  return Partition(std::move(cell_to_region), next);
}

Result<Partition> Partition::FromRects(const Grid& grid,
                                       const std::vector<CellRect>& rects) {
  if (rects.empty()) return InvalidArgumentError("Partition: no rects");
  // Out-of-grid rects fail before any memory is touched, in rect order.
  for (const CellRect& rect : rects) {
    if (rect.row_begin < 0 || rect.col_begin < 0 ||
        rect.row_end > grid.rows() || rect.col_end > grid.cols()) {
      return OutOfRangeError("Partition: rect outside grid: " +
                             rect.DebugString());
    }
  }

  // Hot path: blind row-segment fills plus area accounting. A fill may
  // silently overwrite an overlap, but then the areas cannot add up to a
  // gap-free grid: total area = coverage + double-writes, so (area ==
  // num_cells && no -1 left) implies a true partition. Anything else drops
  // to the diagnostic re-scan below.
  std::vector<int> cell_to_region(static_cast<size_t>(grid.num_cells()), -1);
  long long filled_area = 0;
  for (size_t i = 0; i < rects.size(); ++i) {
    const CellRect& rect = rects[i];
    // Empty/inverted rects must not reach std::fill (first > last is UB);
    // they contribute no area, so the gap diagnostics below still fire.
    if (rect.empty()) continue;
    for (int r = rect.row_begin; r < rect.row_end; ++r) {
      int* row_begin = cell_to_region.data() + grid.CellId(r, rect.col_begin);
      std::fill(row_begin, row_begin + rect.num_cols(), static_cast<int>(i));
    }
    filled_area += rect.num_cells();
  }
  if (filled_area == grid.num_cells() &&
      std::find(cell_to_region.begin(), cell_to_region.end(), -1) ==
          cell_to_region.end()) {
    return Partition(std::move(cell_to_region),
                     static_cast<int>(rects.size()));
  }

  // Cold path: re-mark cell by cell to name the first overlap or gap.
  std::fill(cell_to_region.begin(), cell_to_region.end(), -1);
  for (size_t i = 0; i < rects.size(); ++i) {
    const CellRect& rect = rects[i];
    for (int r = rect.row_begin; r < rect.row_end; ++r) {
      for (int c = rect.col_begin; c < rect.col_end; ++c) {
        int& slot = cell_to_region[static_cast<size_t>(grid.CellId(r, c))];
        if (slot != -1) {
          return InvalidArgumentError("Partition: overlapping rects at cell " +
                                      std::to_string(grid.CellId(r, c)));
        }
        slot = static_cast<int>(i);
      }
    }
  }
  for (size_t cell = 0; cell < cell_to_region.size(); ++cell) {
    if (cell_to_region[cell] == -1) {
      return InvalidArgumentError("Partition: uncovered cell " +
                                  std::to_string(cell));
    }
  }
  return Partition(std::move(cell_to_region),
                   static_cast<int>(rects.size()));
}

void Partition::AssignRect(int cols, const CellRect& rect, int region) {
  for (int r = rect.row_begin; r < rect.row_end; ++r) {
    int* row = cell_to_region_.data() +
               static_cast<size_t>(r) * cols + rect.col_begin;
    std::fill(row, row + rect.num_cols(), region);
  }
}

void Partition::ApplyRectPatch(
    int cols, const std::vector<RectAssignment>& assignments,
    int num_regions) {
  for (const RectAssignment& assignment : assignments) {
    AssignRect(cols, assignment.rect, assignment.region);
  }
  num_regions_ = num_regions;
}

std::vector<Partition::RectAssignment> Partition::DiffRects(
    const std::vector<CellRect>& old_rects,
    const std::vector<CellRect>& new_rects) {
  std::vector<RectAssignment> plan;
  for (size_t p = 0; p < new_rects.size(); ++p) {
    // Skip positions whose (rect, id) pair is unchanged: their cells
    // already hold p, and the disjointness of the new rects means no other
    // assignment in this plan can overwrite them.
    if (p < old_rects.size() && new_rects[p] == old_rects[p]) continue;
    plan.push_back(RectAssignment{new_rects[p], static_cast<int>(p)});
  }
  return plan;
}

Partition Partition::Single(int num_cells) {
  return Partition(std::vector<int>(static_cast<size_t>(num_cells), 0), 1);
}

std::vector<std::vector<int>> Partition::RegionCells() const {
  std::vector<std::vector<int>> out(static_cast<size_t>(num_regions_));
  for (size_t cell = 0; cell < cell_to_region_.size(); ++cell) {
    out[static_cast<size_t>(cell_to_region_[cell])].push_back(
        static_cast<int>(cell));
  }
  return out;
}

std::vector<int> Partition::RegionSizes() const {
  std::vector<int> sizes(static_cast<size_t>(num_regions_), 0);
  for (int region : cell_to_region_) {
    ++sizes[static_cast<size_t>(region)];
  }
  return sizes;
}

Span<const uint32_t> Partition::CellRegionIds() const {
  // int and uint32_t are layout-compatible same-width integer types here
  // (every platform fairidx targets); accessing an int object through an
  // unsigned-variant lvalue is defined, and ids are non-negative, so the
  // values read back unchanged.
  static_assert(sizeof(int) == sizeof(uint32_t),
                "Partition: cell map reinterpretation needs 32-bit int");
  return Span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(cell_to_region_.data()),
      cell_to_region_.size());
}

bool Partition::IsRefinedBy(const Partition& finer) const {
  if (finer.num_cells() != num_cells()) return false;
  // Each finer region must map into exactly one coarse region.
  std::vector<int> finer_to_coarse(static_cast<size_t>(finer.num_regions()),
                                   -1);
  for (int cell = 0; cell < num_cells(); ++cell) {
    const int fine = finer.RegionOfCell(cell);
    const int coarse = RegionOfCell(cell);
    int& mapped = finer_to_coarse[static_cast<size_t>(fine)];
    if (mapped == -1) {
      mapped = coarse;
    } else if (mapped != coarse) {
      return false;
    }
  }
  return true;
}

}  // namespace fairidx
