#include "geo/grid_aggregates.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>

#include "common/huge_pages.h"
#include "common/thread_pool.h"
#include "geo/aggregate_kernels.h"

namespace fairidx {
namespace {

using PrefixEntry = GridAggregates::PrefixEntry;

// The scalar twin of AggregateKernels::integrate_cells: one in-place pass
// over `n` consecutive entries of a prefix row. `entries[-1]` is the
// already-integrated west neighbour (the padded zero border column for the
// first cell of a row); `north` points at the already-integrated previous
// row at the same offsets. Per entry the operation sequence is fixed —
// cell_abs from the RAW label/score sums first, then the three-neighbour
// fold field by field — which is what makes scalar, SIMD, serial and
// band-pipelined execution bit-identical. Kept out of line: when two NaNs
// meet in a commutative add, the compiler's operand order picks the one
// that survives, and a standalone body fixes that choice for every caller.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
void IntegrateCellsScalar(PrefixEntry* entries, const PrefixEntry* north,
                          size_t n) {
  for (size_t i = 0; i < n; ++i) {
    PrefixEntry& e = entries[i];
    const PrefixEntry& west = *(entries + i - 1);
    const PrefixEntry& nn = north[i];
    const PrefixEntry& nw = *(north + i - 1);
    // From the raw per-cell sums, BEFORE the folds below turn them into
    // prefix values (absolute values do not distribute over sums).
    const double cell_abs = internal::CellAbs(e.labels, e.scores);
    e.count += (west.count + nn.count) - nw.count;
    e.labels += (west.labels + nn.labels) - nw.labels;
    e.scores += (west.scores + nn.scores) - nw.scores;
    e.residuals += (west.residuals + nn.residuals) - nw.residuals;
    e.cell_abs = cell_abs + ((west.cell_abs + nn.cell_abs) - nw.cell_abs);
  }
}

// Integrates one row segment through the dispatched kernel (or the scalar
// twin when dispatch resolved to scalar). `kernels` is hoisted by the
// caller so the band loops never touch the atomic.
inline void IntegrateSegment(const internal::AggregateKernels* kernels,
                             PrefixEntry* entries, const PrefixEntry* north,
                             size_t n) {
  if (kernels != nullptr) {
    kernels->integrate_cells(reinterpret_cast<double*>(entries),
                             reinterpret_cast<const double*>(north), n);
  } else {
    IntegrateCellsScalar(entries, north, n);
  }
}

// The rectangle corner combine behind Query and QueryMany: the dispatched
// kernel, or the same per-field expression in scalar code.
inline void CombineCorners(const internal::AggregateKernels* kernels,
                           const PrefixEntry& p11, const PrefixEntry& p01,
                           const PrefixEntry& p10, const PrefixEntry& p00,
                           RegionAggregate* out) {
  if (kernels != nullptr) {
    kernels->corner_combine(reinterpret_cast<const double*>(&p11),
                            reinterpret_cast<const double*>(&p01),
                            reinterpret_cast<const double*>(&p10),
                            reinterpret_cast<const double*>(&p00),
                            reinterpret_cast<double*>(out));
    return;
  }
  out->count = p11.count - p01.count - p10.count + p00.count;
  out->sum_labels = p11.labels - p01.labels - p10.labels + p00.labels;
  out->sum_scores = p11.scores - p01.scores - p10.scores + p00.scores;
  out->sum_residuals =
      p11.residuals - p01.residuals - p10.residuals + p00.residuals;
  out->sum_cell_abs_miscalibration =
      p11.cell_abs - p01.cell_abs - p10.cell_abs + p00.cell_abs;
}

// Spin-wait hint: tells the core a busy-wait loop is running.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

RegionAggregate& RegionAggregate::operator+=(const RegionAggregate& other) {
  count += other.count;
  sum_labels += other.sum_labels;
  sum_scores += other.sum_scores;
  sum_residuals += other.sum_residuals;
  sum_cell_abs_miscalibration += other.sum_cell_abs_miscalibration;
  return *this;
}

GridAggregates::GridAggregates(int rows, int cols,
                               std::vector<PrefixEntry> storage)
    : rows_(rows), cols_(cols), prefix_(std::move(storage)) {
  const size_t size = static_cast<size_t>(rows + 1) * (cols + 1);
  if (prefix_.size() != size) {
    AssignHugePageBacked(&prefix_, size, PrefixEntry{});
  }
}

Status GridAggregates::AccumulateInto(const Grid& grid,
                                      const std::vector<int>& cell_ids,
                                      const std::vector<int>& labels,
                                      const std::vector<double>& scores,
                                      const std::vector<double>& residuals,
                                      PrefixEntry* slots, size_t stride,
                                      int offset) {
  FAIRIDX_RETURN_IF_ERROR(
      ValidateRecords(grid.num_cells(), cell_ids, labels, scores, residuals));
  const size_t n = cell_ids.size();
  for (size_t i = 0; i < n; ++i) {
    const int cell = cell_ids[i];
    PrefixEntry& slot =
        slots[static_cast<size_t>(grid.RowOfCell(cell) + offset) * stride +
              (grid.ColOfCell(cell) + offset)];
    AccumulateRecord(&slot, labels[i], scores[i],
                     residuals.empty() ? (scores[i] - labels[i])
                                       : residuals[i]);
  }
  return Status::Ok();
}

Status GridAggregates::ValidateRecords(int num_cells,
                                       const std::vector<int>& cell_ids,
                                       const std::vector<int>& labels,
                                       const std::vector<double>& scores,
                                       const std::vector<double>& residuals) {
  const size_t n = cell_ids.size();
  if (labels.size() != n || scores.size() != n) {
    return InvalidArgumentError(
        "GridAggregates: cell_ids, labels, scores sizes differ");
  }
  if (!residuals.empty() && residuals.size() != n) {
    return InvalidArgumentError("GridAggregates: residuals size mismatch");
  }
  // Column by column, OR-ing flags instead of branching, which the
  // compiler vectorizes: an out-of-range cell or label wraps to a large
  // unsigned value. Doubles without their sign bit order like their bit
  // patterns, NaN and inf above every finite value, so `limit - |value|`
  // borrows into the top bit exactly when |value| exceeds the limit or is
  // NaN. A score also flags on its sign bit (-0.0 too, which
  // ValidateRecord then accepts).
  constexpr uint64_t kSignBit = 1ull << 63;
  const auto exceeds = [](const std::vector<double>& values, double limit,
                          uint64_t flag_sign) {
    uint64_t limit_bits = 0;
    std::memcpy(&limit_bits, &limit, sizeof limit_bits);
    uint64_t flags = 0;
    for (const double value : values) {
      uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof bits);
      flags |= (bits & flag_sign) | (limit_bits - (bits & ~kSignBit));
    }
    return flags >> 63;
  };
  uint64_t flagged = exceeds(scores, 1.0, kSignBit) |
                     exceeds(residuals, kMaxAbsResidual, 0);
  for (size_t i = 0; i < n; ++i) {
    flagged |= (static_cast<unsigned>(cell_ids[i]) >=
                static_cast<unsigned>(num_cells)) |
               (static_cast<unsigned>(labels[i]) > 1u);
  }
  for (size_t i = 0; flagged != 0 && i < n; ++i) {
    FAIRIDX_RETURN_IF_ERROR(ValidateRecord(
        num_cells, cell_ids[i], labels[i], scores[i],
        residuals.empty() ? scores[i] - labels[i] : residuals[i]));
  }
  return Status::Ok();
}

Result<std::vector<GridAggregates::PrefixEntry>>
GridAggregates::AccumulateCellSums(const Grid& grid,
                                   const std::vector<int>& cell_ids,
                                   const std::vector<int>& labels,
                                   const std::vector<double>& scores,
                                   const std::vector<double>& residuals) {
  std::vector<PrefixEntry> cell_sums = HugePageBackedVector<PrefixEntry>(
      static_cast<size_t>(grid.num_cells()));
  FAIRIDX_RETURN_IF_ERROR(
      AccumulateInto(grid, cell_ids, labels, scores, residuals,
                     cell_sums.data(), static_cast<size_t>(grid.cols()), 0));
  return cell_sums;
}

Result<GridAggregates> GridAggregates::Build(
    const Grid& grid, const std::vector<int>& cell_ids,
    const std::vector<int>& labels, const std::vector<double>& scores,
    const std::vector<double>& residuals) {
  // Accumulate straight into the (row+1, col+1) prefix slots — no
  // intermediate dense array — then integrate in place.
  GridAggregates agg(grid.rows(), grid.cols());
  FAIRIDX_RETURN_IF_ERROR(
      AccumulateInto(grid, cell_ids, labels, scores, residuals,
                     agg.prefix_.data(),
                     static_cast<size_t>(grid.cols()) + 1, 1));
  internal::IntegratePrefix(agg.prefix_.data(), agg.rows_, agg.cols_,
                            /*cell_sums=*/nullptr, /*num_threads=*/0,
                            ThreadPool::Shared());
  return agg;
}

Result<GridAggregates> GridAggregates::FromCellSums(
    int rows, int cols, const std::vector<PrefixEntry>& cell_sums,
    int num_threads, std::vector<PrefixEntry> storage) {
  if (rows <= 0 || cols <= 0) {
    return InvalidArgumentError(
        "GridAggregates::FromCellSums: non-positive grid shape");
  }
  if (cell_sums.size() != static_cast<size_t>(rows) * cols) {
    return InvalidArgumentError(
        "GridAggregates::FromCellSums: cell_sums size mismatch");
  }
  GridAggregates agg(rows, cols, std::move(storage));
  internal::IntegratePrefix(agg.prefix_.data(), rows, cols, cell_sums.data(),
                            num_threads, ThreadPool::Shared());
  return agg;
}

namespace internal {

void IntegratePrefix(PrefixEntry* prefix, int rows, int cols,
                     const PrefixEntry* cell_sums, int num_threads,
                     ThreadPool& pool) {
  int threads = num_threads;
  if (threads == 0) {
    // Auto: engage the pool only when it actually has workers (with none,
    // the bands would just run one after another with bookkeeping on top)
    // and the grid is big enough that the integration dominates it.
    const bool big = static_cast<long long>(rows) * cols >= 256LL * 256LL;
    threads = (pool.num_workers() > 0 && big) ? pool.num_workers() + 1 : 1;
  }
  // Below 64 columns a band's segment is too short to amortise its
  // per-row handoff.
  constexpr int kMinBandCols = 64;
  const int num_bands = std::max(1, std::min(threads, cols / kMinBandCols));
  const size_t stride = static_cast<size_t>(cols) + 1;
  const AggregateKernels* kernels = ActiveAggregateKernels();
  if (cell_sums != nullptr) std::fill(prefix, prefix + stride, PrefixEntry{});

  // Band j owns a contiguous run of padded columns in every row.
  // Integrating its segment of row r reads the west entry (the last column
  // of band j - 1 in row r) and the north row r - 1, so it may start once
  // band j - 1 has published row r: rows stream through the bands as a
  // pipeline, and each cell's arithmetic is the serial loop's.
  struct alignas(64) BandProgress {
    std::atomic<int> rows{0};  // Rows this band has integrated.
  };
  std::vector<BandProgress> progress(static_cast<size_t>(num_bands));
  const auto run_band = [&](int band) {
    const size_t begin = 1 + static_cast<size_t>(cols) * band / num_bands;
    const size_t end = 1 + static_cast<size_t>(cols) * (band + 1) / num_bands;
    for (int r = 1; r <= rows; ++r) {
      // Pause while the west neighbour is likely mid-row; yield once it
      // looks preempted, so the wait does not burn its core.
      for (int spins = 0; band > 0 && progress[band - 1].rows.load(
                                          std::memory_order_acquire) < r;
           ++spins) {
        spins < 64 ? CpuRelax() : std::this_thread::yield();
      }
      PrefixEntry* row = prefix + static_cast<size_t>(r) * stride;
      if (cell_sums != nullptr) {
        // Source cell c sits in padded slot c + 1.
        const PrefixEntry* src = cell_sums + static_cast<size_t>(r - 1) * cols;
        if (band == 0) row[0] = PrefixEntry{};
        std::copy(src + begin - 1, src + end - 1, row + begin);
      }
      IntegrateSegment(kernels, row + begin, row + begin - stride,
                       end - begin);
      progress[band].rows.store(r, std::memory_order_release);
    }
  };
  if (num_bands == 1) {
    run_band(0);
    return;
  }
  // Participants claim bands in increasing order, so a band only ever
  // waits on a lower one that is already claimed — running on some
  // thread. That keeps the pipeline deadlock-free however the pool
  // schedules the participants; on a pool with no workers it degenerates
  // to the bands running one after another.
  std::atomic<int> next_band{0};
  pool.ParallelFor(static_cast<size_t>(num_bands), num_bands, [&](size_t) {
    run_band(next_band.fetch_add(1, std::memory_order_relaxed));
  });
}

}  // namespace internal

RegionAggregate GridAggregates::Query(const CellRect& rect) const {
  RegionAggregate out;
  if (rect.empty()) return out;
  CombineCorners(internal::ActiveAggregateKernels(),
                 EntryAt(rect.row_end, rect.col_end),
                 EntryAt(rect.row_begin, rect.col_end),
                 EntryAt(rect.row_end, rect.col_begin),
                 EntryAt(rect.row_begin, rect.col_begin), &out);
  return out;
}

void GridAggregates::QueryMany(Span<CellRect> rects,
                               RegionAggregate* out) const {
  // Two passes over blocks of rects: the first resolves all prefix-corner
  // addresses back to back (the scattered loads whose cache misses
  // dominate; issuing them together lets the core overlap them), the
  // second combines each rect's corners exactly as Query() does, so every
  // result matches the one-at-a-time path bit for bit.
  constexpr size_t kBlock = 16;
  const PrefixEntry* corners[4 * kBlock];
  const internal::AggregateKernels* kernels =
      internal::ActiveAggregateKernels();
  const size_t n = rects.size();
  for (size_t base = 0; base < n; base += kBlock) {
    const size_t block = std::min(kBlock, n - base);
    for (size_t i = 0; i < block; ++i) {
      const CellRect& rect = rects[base + i];
      if (rect.empty()) {
        // Point all four corners at the same entry: the corner expression
        // then evaluates to exactly +0.0 per field, matching the
        // default-constructed RegionAggregate Query() returns — and rects
        // with out-of-grid "empty" coordinates never touch memory beyond
        // prefix_[0].
        corners[4 * i + 0] = corners[4 * i + 1] = corners[4 * i + 2] =
            corners[4 * i + 3] = prefix_.data();
        continue;
      }
      corners[4 * i + 0] = &EntryAt(rect.row_end, rect.col_end);
      corners[4 * i + 1] = &EntryAt(rect.row_begin, rect.col_end);
      corners[4 * i + 2] = &EntryAt(rect.row_end, rect.col_begin);
      corners[4 * i + 3] = &EntryAt(rect.row_begin, rect.col_begin);
#if defined(__GNUC__) || defined(__clang__)
      // Start the block's scattered corner loads now so they overlap the
      // address computation of the remaining rects and the combine pass.
      __builtin_prefetch(corners[4 * i + 0]);
      __builtin_prefetch(corners[4 * i + 1]);
      __builtin_prefetch(corners[4 * i + 2]);
      __builtin_prefetch(corners[4 * i + 3]);
#endif
    }
    for (size_t i = 0; i < block; ++i) {
      CombineCorners(kernels, *corners[4 * i + 0], *corners[4 * i + 1],
                     *corners[4 * i + 2], *corners[4 * i + 3],
                     &out[base + i]);
    }
  }
}

std::vector<RegionAggregate> GridAggregates::QueryMany(
    Span<CellRect> rects) const {
  std::vector<RegionAggregate> out(rects.size());
  QueryMany(rects, out.data());
  return out;
}

RegionAggregate GridAggregates::Cell(int row, int col) const {
  return Query(CellRect{row, row + 1, col, col + 1});
}

RegionAggregate GridAggregates::Total() const {
  return Query(CellRect{0, rows_, 0, cols_});
}

void GridAggregates::QueryChildren(const CellRect& parent, int axis,
                                   int offset, unsigned fields,
                                   RegionAggregate* left,
                                   RegionAggregate* right) const {
  SplitSweep(*this, parent, axis).Children(offset, fields, left, right);
}

}  // namespace fairidx
