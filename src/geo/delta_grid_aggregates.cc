#include "geo/delta_grid_aggregates.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace fairidx {
namespace {

using PrefixEntry = GridAggregates::PrefixEntry;

// The query-time correction a dirty cell contributes: current minus
// already-in-base stats, field by field. cell_abs is recomputed from the
// sums on each side (absolute values do not distribute over sums).
RegionAggregate DeltaOf(const PrefixEntry& current, const PrefixEntry& base) {
  RegionAggregate delta;
  delta.count = current.count - base.count;
  delta.sum_labels = current.labels - base.labels;
  delta.sum_scores = current.scores - base.scores;
  delta.sum_residuals = current.residuals - base.residuals;
  delta.sum_cell_abs_miscalibration =
      std::abs(current.labels - current.scores) -
      std::abs(base.labels - base.scores);
  return delta;
}

}  // namespace

DeltaGridAggregates::DeltaGridAggregates(
    const Grid& grid, GridAggregates base,
    const DeltaGridAggregatesOptions& options)
    : rows_(grid.rows()),
      cols_(grid.cols()),
      rebuild_threshold_(options.rebuild_threshold_cells),
      cost_fold_factor_(options.cost_fold_factor > 0.0
                            ? options.cost_fold_factor
                            : 1.0),
      base_(std::move(base)),
      cell_sums_(static_cast<size_t>(grid.num_cells())),
      dirty_flag_(static_cast<size_t>(grid.num_cells()), 0) {}

Result<DeltaGridAggregates> DeltaGridAggregates::Build(
    const Grid& grid, const std::vector<int>& cell_ids,
    const std::vector<int>& labels, const std::vector<double>& scores,
    const std::vector<double>& residuals,
    const DeltaGridAggregatesOptions& options) {
  // One shared accumulation pass (GridAggregates::AccumulateCellSums) in
  // arrival order, so the FromCellSums base — and every later Rebuild —
  // is bit-identical to a from-scratch GridAggregates::Build.
  FAIRIDX_ASSIGN_OR_RETURN(
      std::vector<PrefixEntry> cell_sums,
      GridAggregates::AccumulateCellSums(grid, cell_ids, labels, scores,
                                         residuals));
  FAIRIDX_ASSIGN_OR_RETURN(
      GridAggregates base,
      GridAggregates::FromCellSums(grid.rows(), grid.cols(), cell_sums));
  DeltaGridAggregates out(grid, std::move(base), options);
  out.cell_sums_ = std::move(cell_sums);
  out.num_records_ = static_cast<long long>(cell_ids.size());
  return out;
}

Status DeltaGridAggregates::Insert(int cell_id, int label, double score) {
  return Insert(cell_id, label, score, score - label);
}

Status DeltaGridAggregates::Insert(int cell_id, int label, double score,
                                   double residual) {
  FAIRIDX_RETURN_IF_ERROR(
      GridAggregates::ValidateRecord(rows_ * cols_, cell_id, label, score,
                                     residual));
  PrefixEntry& slot = cell_sums_[static_cast<size_t>(cell_id)];
  if (!dirty_flag_[static_cast<size_t>(cell_id)]) {
    // First pending insert for this cell: snapshot what the base prefix
    // already accounts for, BEFORE accumulating the new record.
    dirty_list_.push_back(cell_id);
    dirty_base_.push_back(slot);
    dirty_flag_[static_cast<size_t>(cell_id)] = 1;
  }
  GridAggregates::AccumulateRecord(&slot, label, score, residual);
  ++num_records_;
  if (ShouldRebuild()) {
    return Rebuild();
  }
  return Status::Ok();
}

bool DeltaGridAggregates::ShouldRebuild() const {
  const int dirty = static_cast<int>(dirty_list_.size());
  if (rebuild_threshold_ > 0) {
    // Static policy: bounded dirty set, whatever queries cost.
    return dirty > rebuild_threshold_;
  }
  // Adaptive cost policy: fold once queries have re-walked the dirty set
  // for more work than one O(UV) fold, or when the dirty bookkeeping
  // itself reaches grid size (the snapshot memory bound).
  const long long num_cells =
      static_cast<long long>(rows_) * static_cast<long long>(cols_);
  return pending_scan_work_ >
             static_cast<long long>(cost_fold_factor_ *
                                    static_cast<double>(num_cells)) ||
         dirty >= num_cells;
}

RegionAggregate DeltaGridAggregates::Query(const CellRect& rect) const {
  pending_scan_work_ += static_cast<long long>(dirty_list_.size());
  RegionAggregate out = base_.Query(rect);
  for (size_t d = 0; d < dirty_list_.size(); ++d) {
    const int cell = dirty_list_[d];
    if (!rect.Contains(cell / cols_, cell % cols_)) continue;
    out += DeltaOf(cell_sums_[static_cast<size_t>(cell)], dirty_base_[d]);
  }
  return out;
}

void DeltaGridAggregates::QueryMany(Span<CellRect> rects,
                                    RegionAggregate* out) const {
  pending_scan_work_ += static_cast<long long>(dirty_list_.size()) *
                        static_cast<long long>(rects.size());
  base_.QueryMany(rects, out);
  // Dirty cells outer, rects inner: every rect receives its corrections in
  // dirty-list order, exactly like Query(), so the batched path stays bit
  // identical to the one-at-a-time path.
  for (size_t d = 0; d < dirty_list_.size(); ++d) {
    const int cell = dirty_list_[d];
    const int row = cell / cols_;
    const int col = cell % cols_;
    const RegionAggregate delta =
        DeltaOf(cell_sums_[static_cast<size_t>(cell)], dirty_base_[d]);
    for (size_t i = 0; i < rects.size(); ++i) {
      if (rects[i].Contains(row, col)) out[i] += delta;
    }
  }
}

std::vector<RegionAggregate> DeltaGridAggregates::QueryMany(
    Span<CellRect> rects) const {
  std::vector<RegionAggregate> out(rects.size());
  QueryMany(rects, out.data());
  return out;
}

RegionAggregate DeltaGridAggregates::Total() const {
  return Query(CellRect{0, rows_, 0, cols_});
}

Status DeltaGridAggregates::Rebuild() {
  FAIRIDX_ASSIGN_OR_RETURN(
      GridAggregates rebuilt,
      GridAggregates::FromCellSums(rows_, cols_, cell_sums_));
  base_ = std::move(rebuilt);
  dirty_list_.clear();
  dirty_base_.clear();
  std::fill(dirty_flag_.begin(), dirty_flag_.end(), 0);
  pending_scan_work_ = 0;
  ++rebuild_count_;
  return Status::Ok();
}

}  // namespace fairidx
