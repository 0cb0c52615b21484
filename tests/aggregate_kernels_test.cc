// Differential tests for the runtime-dispatched SIMD aggregate kernels
// (geo/aggregate_kernels.h) and the band-pipelined prefix integration: every
// dispatched path must match the scalar loops BIT FOR BIT — on randomized
// grids, degenerate shapes (1x1, 1xN, Nx1), negative / denormal / ±inf
// cell sums, every field-mask subset of SplitSweep::Children, and every
// integration thread count, pool and reused buffer. Comparisons go through
// memcmp of the whole
// aggregate, so NaN payloads and signed zeros are pinned too (EXPECT_EQ
// would pass -0.0 == +0.0 and fail NaN == NaN).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "geo/aggregate_kernels.h"
#include "geo/grid_aggregates.h"

namespace fairidx {
namespace {

using PrefixEntry = GridAggregates::PrefixEntry;

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

// Flips the process-wide dispatch for one scope; the destructor restores
// detection (which still honours a FAIRIDX_FORCE_SCALAR pin, so these
// tests are meaningful — if trivially so — under the forced-scalar CI
// lane as well).
class ScopedDispatch {
 public:
  explicit ScopedDispatch(bool force_scalar) {
    internal::ForceScalarAggregateKernelsForTest(force_scalar);
  }
  ~ScopedDispatch() { internal::ForceScalarAggregateKernelsForTest(false); }
};

std::string AggToString(const RegionAggregate& a) {
  std::string out;
  const double* d = reinterpret_cast<const double*>(&a);
  for (int i = 0; i < 5; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "{", d[i]);
    out += buf;
  }
  return out + "}";
}

void ExpectBitwiseEq(const RegionAggregate& got, const RegionAggregate& want,
                     const char* what) {
  EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(RegionAggregate)))
      << what << ": got " << AggToString(got) << " want "
      << AggToString(want);
}

// Cell sums mixing ordinary values with every awkward double the prefix
// recurrences can meet: signed zeros, denormals, huge magnitudes that
// overflow to inf under summation, and ±inf themselves (whose inf - inf
// corners produce NaN — which must then match bitwise across paths).
std::vector<PrefixEntry> SpecialCellSums(Rng& rng, int rows, int cols) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,   -0.0, 5e-324, -2.2e-308, 1e308,
                             -7.25, kInf, -kInf,  3.5};
  constexpr int kNumSpecials = sizeof(specials) / sizeof(specials[0]);
  std::vector<PrefixEntry> sums(static_cast<size_t>(rows) * cols);
  for (PrefixEntry& e : sums) {
    e.count = static_cast<double>(rng.NextBounded(40));
    e.labels = specials[rng.NextBounded(kNumSpecials)];
    e.scores = specials[rng.NextBounded(kNumSpecials)];
    e.residuals = specials[rng.NextBounded(kNumSpecials)] *
                  (rng.Bernoulli(0.5) ? 1.0 : -1.0);
  }
  return sums;
}

std::vector<PrefixEntry> RandomCellSums(Rng& rng, int rows, int cols) {
  std::vector<PrefixEntry> sums(static_cast<size_t>(rows) * cols);
  for (PrefixEntry& e : sums) {
    e.count = static_cast<double>(rng.NextBounded(50));
    e.labels = static_cast<double>(rng.NextBounded(20));
    e.scores = rng.NextDouble() * e.count;
    e.residuals = rng.NextDouble() * 2.0 - 1.0;
  }
  return sums;
}

std::vector<CellRect> AllRects(int rows, int cols) {
  std::vector<CellRect> rects;
  for (int r0 = 0; r0 <= rows; ++r0)
    for (int r1 = r0; r1 <= rows; ++r1)
      for (int c0 = 0; c0 <= cols; ++c0)
        for (int c1 = c0; c1 <= cols; ++c1)
          rects.push_back(CellRect{r0, r1, c0, c1});
  return rects;
}

// ---------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------

TEST(CpuFeaturesTest, TierNamesAreStable) {
  EXPECT_STREQ("scalar", SimdTierName(SimdTier::kScalar));
  EXPECT_STREQ("sse2", SimdTierName(SimdTier::kSse2));
  EXPECT_STREQ("avx2", SimdTierName(SimdTier::kAvx2));
}

TEST(CpuFeaturesTest, DetectionIsIdempotent) {
  EXPECT_EQ(DetectedSimdTier(), DetectedSimdTier());
  EXPECT_EQ(CrcHardwareAvailable(), CrcHardwareAvailable());
  EXPECT_EQ(ForceScalarFromEnv(), ForceScalarFromEnv());
  if (ForceScalarFromEnv()) {
    EXPECT_EQ(SimdTier::kScalar, DetectedSimdTier());
    EXPECT_FALSE(CrcHardwareAvailable());
  }
}

TEST(CpuFeaturesTest, ForceScalarHookSwapsTheTable) {
  const internal::AggregateKernels* detected =
      internal::ActiveAggregateKernels();
  {
    ScopedDispatch scalar(true);
    EXPECT_EQ(nullptr, internal::ActiveAggregateKernels());
  }
  EXPECT_EQ(detected, internal::ActiveAggregateKernels());
}

TEST(CpuFeaturesTest, ChildrenKernelsComeInAxisPairs) {
  // Any table that dispatches a children kernel must dispatch both axes
  // (the sweep resolves one pointer per axis at construction, and a
  // one-axis table would silently split coverage between paths).
  const internal::AggregateKernels* detected =
      internal::ActiveAggregateKernels();
  if (detected != nullptr) {
    EXPECT_EQ(detected->children_axis0 != nullptr,
              detected->children_axis1 != nullptr);
  }
}

// ---------------------------------------------------------------------
// SplitSweep::Children: every mask subset, both axes, bitwise, and
// unmasked fields untouched.
// ---------------------------------------------------------------------

TEST(AggregateKernelsTest, ChildrenEveryMaskSubsetBothAxesBitwise) {
  Rng rng(20260808);
  const Grid grid = MakeGrid(16, 13);
  std::vector<int> cells, labels;
  std::vector<double> scores, residuals;
  for (int i = 0; i < 4000; ++i) {
    cells.push_back(static_cast<int>(rng.NextBounded(grid.num_cells())));
    labels.push_back(rng.Bernoulli(0.4) ? 1 : 0);
    scores.push_back(rng.NextDouble());
    residuals.push_back(rng.NextDouble() * 2.0 - 1.0);
  }
  const GridAggregates agg =
      GridAggregates::Build(grid, cells, labels, scores, residuals).value();
  const CellRect parent{2, 14, 1, 12};

  for (int axis = 0; axis < 2; ++axis) {
    for (unsigned fields = 0; fields < 32; ++fields) {
      for (int offset = 1; offset < (axis == 0 ? parent.num_rows()
                                               : parent.num_cols());
           ++offset) {
        RegionAggregate scalar_left, scalar_right, simd_left, simd_right;
        // Sentinel-fill all four outputs: unmasked fields must come back
        // byte-identical to the sentinel on BOTH paths (the Children
        // contract is "untouched", not "zeroed").
        std::memset(&scalar_left, 0xAB, sizeof(scalar_left));
        std::memset(&scalar_right, 0xAB, sizeof(scalar_right));
        std::memset(&simd_left, 0xAB, sizeof(simd_left));
        std::memset(&simd_right, 0xAB, sizeof(simd_right));
        {
          ScopedDispatch scalar(true);
          GridAggregates::SplitSweep sweep(agg, parent, axis);
          sweep.Children(offset, fields, &scalar_left, &scalar_right);
        }
        {
          ScopedDispatch active(false);
          GridAggregates::SplitSweep sweep(agg, parent, axis);
          sweep.Children(offset, fields, &simd_left, &simd_right);
        }
        SCOPED_TRACE("axis=" + std::to_string(axis) +
                     " fields=" + std::to_string(fields) +
                     " offset=" + std::to_string(offset));
        ExpectBitwiseEq(simd_left, scalar_left, "left child");
        ExpectBitwiseEq(simd_right, scalar_right, "right child");
        // Cross-check the sentinel survived on unmasked fields.
        RegionAggregate sentinel;
        std::memset(&sentinel, 0xAB, sizeof(sentinel));
        const double* sent = reinterpret_cast<const double*>(&sentinel);
        const double* left = reinterpret_cast<const double*>(&simd_left);
        for (int f = 0; f < 5; ++f) {
          if (fields & (1u << f)) continue;
          EXPECT_EQ(0, std::memcmp(&left[f], &sent[f], sizeof(double)))
              << "unmasked field " << f << " was written";
        }
      }
    }
  }
}

TEST(AggregateKernelsTest, ChildrenMatchesQueryPairBitwise) {
  Rng rng(7);
  const int rows = 9, cols = 21;
  const auto sums = RandomCellSums(rng, rows, cols);
  const GridAggregates agg =
      GridAggregates::FromCellSums(rows, cols, sums, 1).value();
  const CellRect parent{1, 8, 2, 19};
  for (int axis = 0; axis < 2; ++axis) {
    const int extent = axis == 0 ? parent.num_rows() : parent.num_cols();
    for (int offset = 1; offset < extent; ++offset) {
      CellRect left_rect = parent, right_rect = parent;
      if (axis == 0) {
        left_rect.row_end = right_rect.row_begin = parent.row_begin + offset;
      } else {
        left_rect.col_end = right_rect.col_begin = parent.col_begin + offset;
      }
      RegionAggregate left, right;
      GridAggregates::SplitSweep sweep(agg, parent, axis);
      sweep.Children(offset, kAggregateFieldsAll, &left, &right);
      ExpectBitwiseEq(left, agg.Query(left_rect), "left vs Query");
      ExpectBitwiseEq(right, agg.Query(right_rect), "right vs Query");
    }
  }
}

// ---------------------------------------------------------------------
// Query / QueryMany: dispatched combine vs scalar, exhaustive rects on
// degenerate shapes, special-value sums.
// ---------------------------------------------------------------------

void RunQueryDifferential(int rows, int cols,
                          const std::vector<PrefixEntry>& sums) {
  // Build once per dispatch mode: this also exercises the integrate
  // kernel inside FromCellSums, so a kernel-built structure must answer
  // every query bitwise like the scalar-built one.
  GridAggregates scalar_agg = [&] {
    ScopedDispatch scalar(true);
    return GridAggregates::FromCellSums(rows, cols, sums, 1).value();
  }();
  GridAggregates simd_agg = [&] {
    ScopedDispatch active(false);
    return GridAggregates::FromCellSums(rows, cols, sums, 1).value();
  }();

  const std::vector<CellRect> rects = AllRects(rows, cols);
  std::vector<RegionAggregate> scalar_out(rects.size());
  std::vector<RegionAggregate> simd_out(rects.size());
  {
    ScopedDispatch scalar(true);
    scalar_agg.QueryMany(Span<CellRect>(rects.data(), rects.size()),
                         scalar_out.data());
  }
  {
    ScopedDispatch active(false);
    simd_agg.QueryMany(Span<CellRect>(rects.data(), rects.size()),
                       simd_out.data());
  }
  for (size_t i = 0; i < rects.size(); ++i) {
    SCOPED_TRACE("rect " + std::to_string(i));
    ExpectBitwiseEq(simd_out[i], scalar_out[i], "QueryMany simd vs scalar");
    ExpectBitwiseEq(simd_agg.Query(rects[i]), scalar_out[i],
                    "Query simd vs scalar QueryMany");
  }
}

TEST(AggregateKernelsTest, QueryDifferentialRandomGrid) {
  Rng rng(11);
  RunQueryDifferential(7, 9, RandomCellSums(rng, 7, 9));
}

TEST(AggregateKernelsTest, QueryDifferentialDegenerateShapes) {
  Rng rng(13);
  RunQueryDifferential(1, 1, RandomCellSums(rng, 1, 1));
  RunQueryDifferential(1, 17, RandomCellSums(rng, 1, 17));
  RunQueryDifferential(17, 1, RandomCellSums(rng, 17, 1));
  RunQueryDifferential(2, 2, RandomCellSums(rng, 2, 2));
}

TEST(AggregateKernelsTest, QueryDifferentialSpecialValues) {
  Rng rng(17);
  RunQueryDifferential(6, 8, SpecialCellSums(rng, 6, 8));
  RunQueryDifferential(1, 9, SpecialCellSums(rng, 1, 9));
  RunQueryDifferential(9, 1, SpecialCellSums(rng, 9, 1));
}

TEST(AggregateKernelsTest, ChildrenDifferentialSpecialValues) {
  Rng rng(19);
  const int rows = 8, cols = 11;
  const auto sums = SpecialCellSums(rng, rows, cols);
  const GridAggregates agg =
      GridAggregates::FromCellSums(rows, cols, sums, 1).value();
  const CellRect parent{0, rows, 0, cols};
  for (int axis = 0; axis < 2; ++axis) {
    const int extent = axis == 0 ? rows : cols;
    for (int offset = 1; offset < extent; ++offset) {
      RegionAggregate sl, sr, vl, vr;
      {
        ScopedDispatch scalar(true);
        GridAggregates::SplitSweep sweep(agg, parent, axis);
        sweep.Children(offset, kAggregateFieldsAll, &sl, &sr);
      }
      {
        ScopedDispatch active(false);
        GridAggregates::SplitSweep sweep(agg, parent, axis);
        sweep.Children(offset, kAggregateFieldsAll, &vl, &vr);
      }
      SCOPED_TRACE("axis=" + std::to_string(axis) +
                   " offset=" + std::to_string(offset));
      ExpectBitwiseEq(vl, sl, "left child (special values)");
      ExpectBitwiseEq(vr, sr, "right child (special values)");
    }
  }
}

// ---------------------------------------------------------------------
// Band-pipelined integration: every thread count, both dispatch modes,
// any pool, reused buffers — bit for bit against the serial scalar
// reference.
// ---------------------------------------------------------------------

void ExpectSamePrefixes(const GridAggregates& got,
                        const GridAggregates& want, int rows, int cols) {
  // The prefix array is private; per-cell queries read every entry (each
  // cell touches 4 corners, and together they cover the whole array), so
  // bitwise-equal answers over all cells + totals pin the structure.
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      SCOPED_TRACE("cell " + std::to_string(r) + "," + std::to_string(c));
      ExpectBitwiseEq(got.Cell(r, c), want.Cell(r, c), "cell");
    }
  }
  ExpectBitwiseEq(got.Total(), want.Total(), "total");
}

GridAggregates SerialScalarReference(int rows, int cols,
                                     const std::vector<PrefixEntry>& sums) {
  ScopedDispatch scalar(true);
  return GridAggregates::FromCellSums(rows, cols, sums, 1).value();
}

void RunBandDifferential(int rows, int cols,
                         const std::vector<PrefixEntry>& sums) {
  const GridAggregates reference = SerialScalarReference(rows, cols, sums);
  for (const bool force_scalar : {true, false}) {
    for (const int threads : {0, 2, 3, 8}) {
      ScopedDispatch dispatch(force_scalar);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " force_scalar=" + std::to_string(force_scalar));
      const GridAggregates agg =
          GridAggregates::FromCellSums(rows, cols, sums, threads).value();
      ExpectSamePrefixes(agg, reference, rows, cols);
    }
  }
}

TEST(BandIntegrateTest, ThreadCountsBitIdenticalRandomGrid) {
  Rng rng(101);
  RunBandDifferential(37, 53, RandomCellSums(rng, 37, 53));
}

TEST(BandIntegrateTest, ThreadCountsBitIdenticalSpecialValues) {
  Rng rng(103);
  RunBandDifferential(23, 31, SpecialCellSums(rng, 23, 31));
}

TEST(BandIntegrateTest, DegenerateShapes) {
  Rng rng(107);
  RunBandDifferential(1, 1, RandomCellSums(rng, 1, 1));
  RunBandDifferential(1, 40, RandomCellSums(rng, 1, 40));
  RunBandDifferential(40, 1, RandomCellSums(rng, 40, 1));
}

TEST(BandIntegrateTest, ManyColumnChunks) {
  // Wide enough that the pipeline really cuts rows into several bands
  // (64-column minimum per band), so the band-edge handoff — band j's
  // first west neighbour living in band j - 1 — is exercised.
  Rng rng(109);
  RunBandDifferential(17, 400, RandomCellSums(rng, 17, 400));
}

TEST(BandIntegrateTest, MoreThreadsThanColumnBands) {
  // 200 columns allow 3 bands; 16 requested threads must clamp to them.
  Rng rng(111);
  const auto sums = RandomCellSums(rng, 21, 200);
  const GridAggregates reference = SerialScalarReference(21, 200, sums);
  ExpectSamePrefixes(GridAggregates::FromCellSums(21, 200, sums, 16).value(),
                     reference, 21, 200);
}

TEST(BandIntegrateTest, EightThreadsOnThreeColumns) {
  Rng rng(112);
  const auto sums = RandomCellSums(rng, 30, 3);
  const GridAggregates reference = SerialScalarReference(30, 3, sums);
  ExpectSamePrefixes(GridAggregates::FromCellSums(30, 3, sums, 8).value(),
                     reference, 30, 3);
}

TEST(BandIntegrateTest, WorkerlessPoolRunsBandsSerially) {
  // With no workers, every participant runs on the calling thread inside
  // ParallelFor's wait, in claim order: band j starts only after band j-1
  // has finished every row, so the pipeline must neither deadlock nor
  // change a bit.
  Rng rng(114);
  const int rows = 19, cols = 300;
  const auto sums = RandomCellSums(rng, rows, cols);
  const size_t padded = static_cast<size_t>(rows + 1) * (cols + 1);
  std::vector<PrefixEntry> want(padded);
  internal::IntegratePrefix(want.data(), rows, cols, sums.data(), 1,
                            ThreadPool::Shared());
  ThreadPool workerless(0);
  for (const int threads : {0, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<PrefixEntry> got(padded);
    internal::IntegratePrefix(got.data(), rows, cols, sums.data(), threads,
                              workerless);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             padded * sizeof(PrefixEntry)));
  }
}

TEST(BandIntegrateTest, ReusedStorageMatchesFreshBitwise) {
  // Each build integrates into the previous build's prefix array, as the
  // sharded store's seals do once retention recycles a snapshot. The
  // first storage is NaN garbage: its old contents must never leak.
  Rng rng(115);
  const int rows = 26, cols = 140;
  std::vector<PrefixEntry> storage(
      static_cast<size_t>(rows + 1) * (cols + 1),
      PrefixEntry{std::nan(""), std::nan(""), std::nan(""), std::nan(""),
                  std::nan("")});
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto sums = RandomCellSums(rng, rows, cols);
    GridAggregates reused =
        GridAggregates::FromCellSums(rows, cols, sums, round % 3,
                                     std::move(storage))
            .value();
    ExpectSamePrefixes(reused, SerialScalarReference(rows, cols, sums), rows,
                       cols);
    storage = std::move(reused).ReleaseStorage();
  }
}

TEST(BandIntegrateTest, WrongShapeStorageIsIgnored) {
  Rng rng(116);
  const int rows = 9, cols = 12;
  const auto sums = RandomCellSums(rng, rows, cols);
  const GridAggregates reference = SerialScalarReference(rows, cols, sums);
  for (const size_t size : {size_t{0}, size_t{5}, size_t{10 * 13 + 1}}) {
    SCOPED_TRACE("storage size " + std::to_string(size));
    std::vector<PrefixEntry> storage(size, PrefixEntry{1.0, 2.0, 3.0, 4.0,
                                                       5.0});
    ExpectSamePrefixes(GridAggregates::FromCellSums(rows, cols, sums, 1,
                                                    std::move(storage))
                           .value(),
                       reference, rows, cols);
  }
}

TEST(BandIntegrateTest, BuildUsesIntegrationAuto) {
  // Build() routes through the same integration (auto thread mode); a
  // built structure must match a serial FromCellSums of its own sums.
  Rng rng(113);
  const Grid grid = MakeGrid(19, 23);
  std::vector<int> cells, labels;
  std::vector<double> scores;
  for (int i = 0; i < 3000; ++i) {
    cells.push_back(static_cast<int>(rng.NextBounded(grid.num_cells())));
    labels.push_back(rng.Bernoulli(0.3) ? 1 : 0);
    scores.push_back(rng.NextDouble());
  }
  const GridAggregates built =
      GridAggregates::Build(grid, cells, labels, scores).value();
  const auto sums =
      GridAggregates::AccumulateCellSums(grid, cells, labels, scores)
          .value();
  ExpectSamePrefixes(built, SerialScalarReference(19, 23, sums), 19, 23);
}

// TSan stress: repeated band-pipelined runs with several bands in flight,
// so a missing release/acquire edge between neighbouring bands surfaces as
// a data race under -fsanitize=thread (this suite is part of the TSan CI
// filter).
TEST(BandIntegrateTest, StressRepeatedThreadedRuns) {
  Rng rng(127);
  const int rows = 48, cols = 260;
  const auto sums = RandomCellSums(rng, rows, cols);
  const RegionAggregate want =
      SerialScalarReference(rows, cols, sums).Total();
  std::vector<PrefixEntry> storage;
  for (int iter = 0; iter < 20; ++iter) {
    GridAggregates agg =
        GridAggregates::FromCellSums(rows, cols, sums, 8, std::move(storage))
            .value();
    ExpectBitwiseEq(agg.Total(), want, "threaded total");
    storage = std::move(agg).ReleaseStorage();
  }
}

}  // namespace
}  // namespace fairidx
