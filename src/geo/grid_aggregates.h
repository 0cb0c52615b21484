// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Per-cell aggregates with 2-D prefix sums. This is the workhorse behind the
// Fair KD-tree split search (Algorithm 2): every candidate split's left/right
// counts, label sums, score sums and residual sums are O(1) range queries,
// which yields the O(|D| log t) total construction cost of Theorem 3.
//
// Layout: all five statistics live in ONE row-major array of PrefixEntry, so
// a rectangle query touches 4 contiguous 40-byte entries instead of 20
// scattered doubles across five parallel arrays. The SplitSweep view goes
// further for Algorithm 2's scan: the four parent-corner entries are hoisted
// once per scan, leaving two interleaved entry reads per candidate offset
// (the moving boundary line), and a field mask lets cheap objectives (e.g.
// median count) skip the statistics they never read.

#ifndef FAIRIDX_GEO_GRID_AGGREGATES_H_
#define FAIRIDX_GEO_GRID_AGGREGATES_H_

#include <cmath>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/span.h"
#include "geo/aggregate_kernels.h"
#include "geo/grid.h"
#include "geo/rect.h"

namespace fairidx {

/// Aggregate statistics of the records inside a region.
struct RegionAggregate {
  double count = 0.0;
  double sum_labels = 0.0;
  double sum_scores = 0.0;
  double sum_residuals = 0.0;
  /// Sum over the region's cells of each cell's |sum_labels - sum_scores|.
  /// By the triangle inequality this upper-bounds the weighted
  /// miscalibration of EVERY sub-region (cell-aligned), so it is a sound
  /// early-stopping statistic: a region with a small value cannot hide
  /// miscalibrated pockets. Unlike WeightedMiscalibration(), opposite-sign
  /// cell biases do not cancel here.
  double sum_cell_abs_miscalibration = 0.0;

  /// o(N): true fraction of positive instances (Eq. 8). 0 if empty.
  double MeanLabel() const { return count > 0 ? sum_labels / count : 0.0; }

  /// e(N): expected confidence score (Eq. 7). 0 if empty.
  double MeanScore() const { return count > 0 ? sum_scores / count : 0.0; }

  /// |o(N) - e(N)|, the paper's absolute-difference miscalibration.
  double Miscalibration() const {
    return count > 0 ? std::abs(MeanLabel() - MeanScore()) : 0.0;
  }

  /// |N| * |o(N) - e(N)| = |sum_labels - sum_scores|, the weighted form used
  /// inside the split objective (Eq. 9).
  double WeightedMiscalibration() const {
    return std::abs(sum_labels - sum_scores);
  }

  /// |sum over region of v_tot[u]|, the multi-objective residual mass
  /// (Eq. 13's inner term).
  double AbsResidualSum() const { return std::abs(sum_residuals); }

  RegionAggregate& operator+=(const RegionAggregate& other);
};

/// Bitmask naming the RegionAggregate statistics a query must fill. Queries
/// leave unmasked fields at 0; callers that consume every statistic pass
/// kAggregateFieldsAll.
enum AggregateField : unsigned {
  kAggregateFieldCount = 1u << 0,
  kAggregateFieldLabels = 1u << 1,
  kAggregateFieldScores = 1u << 2,
  kAggregateFieldResiduals = 1u << 3,
  kAggregateFieldCellAbs = 1u << 4,
};
inline constexpr unsigned kAggregateFieldsAll =
    kAggregateFieldCount | kAggregateFieldLabels | kAggregateFieldScores |
    kAggregateFieldResiduals | kAggregateFieldCellAbs;

/// Immutable per-grid-cell aggregates with O(1) rectangle queries.
class GridAggregates {
 public:
  /// One interleaved prefix-sum entry: the five statistics of the inclusive
  /// prefix rectangle ending at a (row, col) corner, adjacent in memory.
  struct PrefixEntry {
    double count = 0.0;
    double labels = 0.0;
    double scores = 0.0;
    double residuals = 0.0;
    double cell_abs = 0.0;
  };

  /// The largest |residual| a record may carry. Scores are confidence
  /// scores in [0, 1], so a default residual (score - label) lies in
  /// [-1, 1]; a multi-objective v_tot = sum_i alpha_i (s_i - y_i) is
  /// bounded by sum_i |alpha_i|, which MultiObjective checks against this
  /// same constant (the headroom over 1 absorbs its alpha-sum tolerance).
  /// With every record bounded, a sum over N records stays within 2N in
  /// magnitude: no prefix sum can overflow to inf and poison its
  /// neighbours with inf - inf = NaN.
  static constexpr double kMaxAbsResidual = 2.0;

  /// Builds aggregates for records located at `cell_ids`, with true labels
  /// `labels` (0/1) and classifier scores `scores`. `residuals`, if
  /// non-empty, carries the multi-objective per-record value v_tot[u];
  /// otherwise residuals default to (score - label), which makes the
  /// single-task residual sum equal |N|*(e-o).
  ///
  /// All vectors must have the same length; cell ids must be within the grid.
  static Result<GridAggregates> Build(const Grid& grid,
                                      const std::vector<int>& cell_ids,
                                      const std::vector<int>& labels,
                                      const std::vector<double>& scores,
                                      const std::vector<double>& residuals =
                                          {});

  /// Builds aggregates directly from per-cell raw sums (`cell_sums` is
  /// row-major, rows * cols entries; the cell_abs field of the input is
  /// ignored and recomputed as |labels - scores| per cell). Produces the
  /// exact structure Build() would for any record stream with the same
  /// per-cell sums — the sharded serving store's seal folds use this, so
  /// a sealed epoch is bit-identical to Build over the same records.
  ///
  /// One pass: each source row segment is copied into its padded slot
  /// just before it is integrated, while it is still cache-hot.
  /// `num_threads` controls that pass: 0 picks automatically (the shared
  /// pool, when it has workers and the grid is big enough to pay for
  /// scheduling), 1 forces the serial loop, and N > 1 cuts the columns
  /// into min(N, cols / 64) bands that integrate as a row pipeline on the
  /// shared pool. The result is bit-identical under every setting — each
  /// cell's operation sequence is fixed and the bands only change WHEN a
  /// segment runs — which the BandIntegrate differential suite pins.
  ///
  /// `storage`, if it is a (rows+1) * (cols+1) array (the ReleaseStorage
  /// of an earlier structure of the same shape), is reused for the prefix
  /// array instead of allocating and page-faulting a fresh one; any other
  /// size is ignored. Its old contents never leak into the result.
  static Result<GridAggregates> FromCellSums(
      int rows, int cols, const std::vector<PrefixEntry>& cell_sums,
      int num_threads = 0, std::vector<PrefixEntry> storage = {});

  /// Moves the prefix array out for reuse as FromCellSums `storage`,
  /// leaving this structure empty: it may only be destroyed afterwards.
  std::vector<PrefixEntry> ReleaseStorage() && { return std::move(prefix_); }

  /// Validates `cell_ids`/`labels`/`scores`/`residuals` (the Build
  /// contract) and accumulates them into dense row-major per-cell sums in
  /// arrival order — the single definition of the accumulation step, so
  /// Build() and FromCellSums(AccumulateCellSums(...)) can never drift
  /// apart on validation rules, residual defaulting or summation order.
  static Result<std::vector<PrefixEntry>> AccumulateCellSums(
      const Grid& grid, const std::vector<int>& cell_ids,
      const std::vector<int>& labels, const std::vector<double>& scores,
      const std::vector<double>& residuals = {});

  /// The single definition of one record's contribution to a per-cell sum:
  /// Build and the sharded serving store's seal folds both add through
  /// this, so their per-slot floating-point operation sequences can never
  /// drift apart. `residual` is the caller's
  /// explicit value (callers wanting the default pass score - label).
  static void AccumulateRecord(PrefixEntry* slot, int label, double score,
                               double residual) {
    slot->count += 1.0;
    slot->labels += label;
    slot->scores += score;
    slot->residuals += residual;
  }

  /// The Build contract over a record set, which Build and the sharded
  /// store's Ingest both enforce: parallel vectors of one length
  /// (`residuals` may be empty; each then defaults to score - label, in
  /// range whenever the score is) and ValidateRecord for every record. One
  /// branch-free pass flags a bad set, so the ingest hot path pays a few
  /// vector ops per record; only a flagged set is walked again through
  /// ValidateRecord for its first offender's status.
  static Status ValidateRecords(int num_cells,
                                const std::vector<int>& cell_ids,
                                const std::vector<int>& labels,
                                const std::vector<double>& scores,
                                const std::vector<double>& residuals);

  /// Aggregate over all cells in `rect` (half-open). O(1).
  RegionAggregate Query(const CellRect& rect) const;

  /// Batched Query: fills `out[i]` with Query(rects[i]) for every i, bit
  /// for bit. One call amortises the per-query call overhead and resolves
  /// the prefix corners of a block of rects back to back, so out-of-order
  /// cores overlap the scattered corner cache misses that dominate
  /// region-fleet evaluation (ENCE / disparity / residual reports). `out`
  /// must have room for rects.size() entries.
  void QueryMany(Span<CellRect> rects, RegionAggregate* out) const;

  /// Convenience overload returning a fresh vector.
  std::vector<RegionAggregate> QueryMany(Span<CellRect> rects) const;

  /// Aggregate of one cell.
  RegionAggregate Cell(int row, int col) const;

  /// Total over the whole grid.
  RegionAggregate Total() const;

  /// Streaming view over every candidate split of `parent` along one axis
  /// (Algorithm 2's inner loop). The four parent-corner entries are read
  /// once at construction; Children() then derives BOTH child aggregates
  /// from the two boundary-line entries of the candidate offset. The
  /// floating-point evaluation order matches Query() exactly, so the fused
  /// scan is bit-identical to two independent Query() calls.
  class SplitSweep {
   public:
    /// `axis` 0 sweeps row cuts, 1 sweeps column cuts. `parent` must be
    /// non-empty and inside the grid.
    inline SplitSweep(const GridAggregates& aggregates,
                      const CellRect& parent, int axis);

    /// Number of rows/cols along the swept axis; valid offsets are
    /// [1, extent()).
    int extent() const { return extent_; }

    /// Fills the masked `fields` of the child aggregates for the split at
    /// `offset`; unmasked fields stay 0. Defined inline so scan loops can
    /// fold the field mask and keep the hoisted corners in registers.
    inline void Children(int offset, unsigned fields, RegionAggregate* left,
                         RegionAggregate* right) const;

   private:
    const PrefixEntry* line_a_;  // Moving boundary, far corner at offset 0.
    const PrefixEntry* line_b_;  // Moving boundary, near corner at offset 0.
    size_t step_;                // Entry stride per offset along each line.
    int axis_;
    int extent_;
    // Dispatched all-fields children kernel for this sweep's axis,
    // resolved once at construction (nullptr = scalar macro path, on
    // non-x86 hosts, under FAIRIDX_FORCE_SCALAR, or at tiers where the
    // auto-vectorized macros are already optimal). Caching the resolved
    // pointer keeps the per-offset dispatch to one register test.
    void (*children_kernel_)(const double* a, const double* b,
                             const double* corners, double* left,
                             double* right);
    // Hoisted parent corners, contiguous in kernel order c00,c01,c10,c11.
    PrefixEntry corners_[4];
  };

  /// Fused children query: one call computes both child aggregates of the
  /// candidate split (`axis`, `offset`) of `parent`, reading 6 interleaved
  /// entries instead of Query()'s 8 scattered corners. Scans should prefer
  /// constructing a SplitSweep once and calling Children() per offset.
  void QueryChildren(const CellRect& parent, int axis, int offset,
                     unsigned fields, RegionAggregate* left,
                     RegionAggregate* right) const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }

 private:
  /// The per-record acceptance rule: in-grid cell id, a 0/1 label, a
  /// score in [0, 1] and |residual| <= kMaxAbsResidual. NaN fails both
  /// range checks. One NaN, inf or huge value would turn every prefix
  /// entry downstream of its cell non-finite.
  static Status ValidateRecord(int num_cells, int cell_id, int label,
                               double score, double residual) {
    if (cell_id < 0 || cell_id >= num_cells) {
      return OutOfRangeError("GridAggregates: cell id out of range");
    }
    if (label != 0 && label != 1) {
      return InvalidArgumentError("GridAggregates: labels must be 0 or 1");
    }
    if (!(score >= 0.0 && score <= 1.0)) {
      return InvalidArgumentError(
          "GridAggregates: scores must lie in [0, 1]");
    }
    if (!(std::abs(residual) <= kMaxAbsResidual)) {
      return InvalidArgumentError(
          "GridAggregates: residuals must lie in [-2, 2] "
          "(kMaxAbsResidual)");
    }
    return Status::Ok();
  }

  /// A (rows+1) x (cols+1) prefix array: `storage` when it already has
  /// that size (its contents are the caller's to overwrite), else zeros.
  GridAggregates(int rows, int cols, std::vector<PrefixEntry> storage = {});

  /// The single definition of the validate-and-accumulate step: adds each
  /// record to slots[(row + offset) * stride + col + offset] in arrival
  /// order. Build writes straight into the padded prefix array (stride
  /// cols+1, offset 1 — no intermediate dense copy); AccumulateCellSums
  /// writes a dense row-major array (stride cols, offset 0). Identical
  /// per-slot addition order either way, which is what keeps
  /// FromCellSums(AccumulateCellSums(...)) bit-identical to Build.
  static Status AccumulateInto(const Grid& grid,
                               const std::vector<int>& cell_ids,
                               const std::vector<int>& labels,
                               const std::vector<double>& scores,
                               const std::vector<double>& residuals,
                               PrefixEntry* slots, size_t stride,
                               int offset);

  const PrefixEntry& EntryAt(int row, int col) const {
    return prefix_[static_cast<size_t>(row) * (cols_ + 1) + col];
  }

  int rows_;
  int cols_;
  // (rows+1) x (cols+1) inclusive-exclusive prefix sums, row-major, all
  // five statistics interleaved per corner.
  std::vector<PrefixEntry> prefix_;
};

class ThreadPool;

namespace internal {

/// The prefix integration behind Build and FromCellSums, over a padded
/// (rows+1) x (cols+1) `prefix` array. With `cell_sums` set, every row
/// segment is first copied from the dense row-major sums into its padded
/// slots (and the border written as zeros); with nullptr the slots already
/// hold the raw sums and a zero border. Per cell, derives cell_abs from
/// the raw label/score sums and folds in the west/north/northwest prefix
/// neighbours. `num_threads` as in FromCellSums, with the bands running
/// on `pool`; exposed so tests can pin the pipeline on a pool of their
/// own (one with no workers, say).
void IntegratePrefix(GridAggregates::PrefixEntry* prefix, int rows, int cols,
                     const GridAggregates::PrefixEntry* cell_sums,
                     int num_threads, ThreadPool& pool);

}  // namespace internal

// The SIMD kernels address PrefixEntry / RegionAggregate as 5 contiguous
// doubles (geo/aggregate_kernels.h); these pins fail the build if either
// struct ever grows padding, a vtable, or a different field count.
static_assert(std::is_standard_layout<GridAggregates::PrefixEntry>::value &&
                  sizeof(GridAggregates::PrefixEntry) ==
                      internal::kAggregateEntryDoubles * sizeof(double),
              "PrefixEntry must be 5 contiguous doubles (kernel contract)");
static_assert(std::is_standard_layout<RegionAggregate>::value &&
                  sizeof(RegionAggregate) ==
                      internal::kAggregateEntryDoubles * sizeof(double),
              "RegionAggregate must be 5 contiguous doubles "
              "(kernel contract)");

inline GridAggregates::SplitSweep::SplitSweep(
    const GridAggregates& aggregates, const CellRect& parent, int axis)
    : axis_(axis),
      extent_(axis == 0 ? parent.num_rows() : parent.num_cols()),
      corners_{aggregates.EntryAt(parent.row_begin, parent.col_begin),
               aggregates.EntryAt(parent.row_begin, parent.col_end),
               aggregates.EntryAt(parent.row_end, parent.col_begin),
               aggregates.EntryAt(parent.row_end, parent.col_end)} {
  const internal::AggregateKernels* kernels =
      internal::ActiveAggregateKernels();
  children_kernel_ =
      kernels == nullptr
          ? nullptr
          : (axis == 0 ? kernels->children_axis0 : kernels->children_axis1);
  if (axis == 0) {
    // Row cut: the boundary line walks down rows; each step jumps one
    // prefix row.
    line_a_ = &aggregates.EntryAt(parent.row_begin, parent.col_end);
    line_b_ = &aggregates.EntryAt(parent.row_begin, parent.col_begin);
    step_ = static_cast<size_t>(aggregates.cols_) + 1;
  } else {
    // Column cut: the boundary line walks right along two prefix rows.
    line_a_ = &aggregates.EntryAt(parent.row_end, parent.col_begin);
    line_b_ = &aggregates.EntryAt(parent.row_begin, parent.col_begin);
    step_ = 1;
  }
}

inline void GridAggregates::SplitSweep::Children(int offset, unsigned fields,
                                                 RegionAggregate* left,
                                                 RegionAggregate* right)
    const {
  const PrefixEntry& a = line_a_[offset * step_];
  const PrefixEntry& b = line_b_[offset * step_];
  // Per field, both children are the same corner expression Query() would
  // evaluate — identical operation order, so results match bit for bit.
  // Full-fields scans (every split objective reads all five statistics)
  // take the dispatched per-axis kernel, which evaluates those exact
  // expressions at full vector width; FAIRIDX_FORCE_SCALAR and the test
  // hook null the pointer at sweep construction. Partial masks (e.g. a
  // count-only probe) keep the scalar macros, where the compiler folds
  // the constant mask and auto-vectorizes the survivors in place.
  if (children_kernel_ != nullptr && fields == kAggregateFieldsAll) {
    children_kernel_(reinterpret_cast<const double*>(&a),
                     reinterpret_cast<const double*>(&b),
                     reinterpret_cast<const double*>(corners_),
                     reinterpret_cast<double*>(left),
                     reinterpret_cast<double*>(right));
    return;
  }
  const PrefixEntry& c00 = corners_[0];
  const PrefixEntry& c01 = corners_[1];
  const PrefixEntry& c10 = corners_[2];
  const PrefixEntry& c11 = corners_[3];
  if (axis_ == 0) {
#define FAIRIDX_SWEEP_FIELD(flag, pe, ra)                        \
  if (fields & (flag)) {                                         \
    left->ra = ((a.pe - c01.pe) - b.pe) + c00.pe;                \
    right->ra = ((c11.pe - a.pe) - c10.pe) + b.pe;               \
  }
    FAIRIDX_SWEEP_FIELD(kAggregateFieldCount, count, count)
    FAIRIDX_SWEEP_FIELD(kAggregateFieldLabels, labels, sum_labels)
    FAIRIDX_SWEEP_FIELD(kAggregateFieldScores, scores, sum_scores)
    FAIRIDX_SWEEP_FIELD(kAggregateFieldResiduals, residuals, sum_residuals)
    FAIRIDX_SWEEP_FIELD(kAggregateFieldCellAbs, cell_abs,
                        sum_cell_abs_miscalibration)
#undef FAIRIDX_SWEEP_FIELD
  } else {
#define FAIRIDX_SWEEP_FIELD(flag, pe, ra)                        \
  if (fields & (flag)) {                                         \
    left->ra = ((a.pe - b.pe) - c10.pe) + c00.pe;                \
    right->ra = ((c11.pe - c01.pe) - a.pe) + b.pe;               \
  }
    FAIRIDX_SWEEP_FIELD(kAggregateFieldCount, count, count)
    FAIRIDX_SWEEP_FIELD(kAggregateFieldLabels, labels, sum_labels)
    FAIRIDX_SWEEP_FIELD(kAggregateFieldScores, scores, sum_scores)
    FAIRIDX_SWEEP_FIELD(kAggregateFieldResiduals, residuals, sum_residuals)
    FAIRIDX_SWEEP_FIELD(kAggregateFieldCellAbs, cell_abs,
                        sum_cell_abs_miscalibration)
#undef FAIRIDX_SWEEP_FIELD
  }
}

}  // namespace fairidx

#endif  // FAIRIDX_GEO_GRID_AGGREGATES_H_
