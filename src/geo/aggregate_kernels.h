// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Runtime-dispatched SIMD kernels for the five-double aggregate entries
// behind GridAggregates ({count, labels, scores, residuals, cell_abs};
// see geo/grid_aggregates.h). Three hot loops bottom out here:
//
//   * SplitSweep::Children — Algorithm 2's per-offset corner expression,
//   * Query / QueryMany    — the 4-corner rectangle combine,
//   * IntegratePrefix      — the O(UV) prefix integration every build,
//                            fold and seal pays.
//
// Dispatch follows the Crc32c pattern in common/binary_io.cc: one
// detection through common/cpu_features.h (FAIRIDX_FORCE_SCALAR pins the
// scalar fallback), after which call sites branch on a cached table
// pointer. The hard rule, pinned by the differential suites
// (tests/aggregate_kernels_test.cc, split_scan_equivalence_test,
// query_many_test, delta/sharded seal differentials): every kernel
// preserves the scalar loop's exact per-field operation sequence —
// elementwise add/sub only, no reassociation, and no FMA (the AVX2
// kernels are compiled with target("avx2"), never "fma"; contraction
// would fuse a rounding step and change results). The four plain-sum
// fields ride the vector lanes; cell_abs is the scalar fifth lane
// everywhere, since its |labels - scores| derivation is per-field
// scalar to begin with.

#ifndef FAIRIDX_GEO_AGGREGATE_KERNELS_H_
#define FAIRIDX_GEO_AGGREGATE_KERNELS_H_

#include <cmath>
#include <cstddef>

namespace fairidx {
namespace internal {

/// Doubles per aggregate entry (PrefixEntry / RegionAggregate; layout
/// static_assert'd against both structs in geo/grid_aggregates.h).
inline constexpr size_t kAggregateEntryDoubles = 5;

/// A cell's |labels - scores|, the integrate's cell_abs term, in every
/// kernel tier. A NaN difference is kept as it is: std::abs would clear
/// its sign, and that second NaN bit pattern would meet the default NaN
/// that inf - inf leaves in the prefix sums. When two different NaNs
/// meet in an add, x86 keeps the first operand's, and which operand
/// comes first is the compiler's choice (it differs between -O0 and
/// -O2, and between SSE and VEX code). With one pattern in play, every
/// operand order yields the same bits.
inline double CellAbs(double labels, double scores) {
  const double d = labels - scores;
  return std::isnan(d) ? d : std::abs(d);
}

/// One table of kernel entry points. Every pointer parameter references
/// 5-double entries laid out {count, labels, scores, residuals,
/// cell_abs}.
struct AggregateKernels {
  /// Query's rectangle combine: out = ((p11 - p01) - p10) + p00 for all
  /// five fields, in that association order.
  void (*corner_combine)(const double* p11, const double* p01,
                         const double* p10, const double* p00, double* out);
  /// Integrates `n` consecutive prefix-row entries in place. Per entry e:
  ///   e.cell_abs = |e.labels - e.scores|          (from the RAW sums)
  ///   e.f       += (west.f + north.f) - northwest.f   (all five fields)
  /// where west is the entry immediately before e (the caller guarantees
  /// entries[-1] is the already-integrated west neighbour — the padded
  /// zero border column for the first cell of a row) and north /
  /// northwest sit in the already-integrated `north` row at the same
  /// offsets.
  void (*integrate_cells)(double* entries, const double* north, size_t n);
  /// SplitSweep::Children's all-five-fields corner expressions at one
  /// offset, one entry point per split axis so the sweep resolves the
  /// axis once at construction instead of per offset. `a`/`b` are the
  /// two moving boundary-line entries, `corners` the four hoisted parent
  /// corners c00,c01,c10,c11 (contiguous, 20 doubles). Axis 0:
  ///   left = ((a - c01) - b) + c00;  right = ((c11 - a) - c10) + b
  /// Axis 1:
  ///   left = ((a - b) - c10) + c00;  right = ((c11 - c01) - a) + b
  /// — the scalar macros' exact association order per field. Either
  /// pointer may be null even in a non-null table: at SSE2 width the
  /// compiler auto-vectorizes the inlined scalar macros into equivalent
  /// code, so an out-of-line call would only add overhead; the kernels
  /// exist where extra vector width (AVX2) beats the call cost. Partial
  /// field masks always take the scalar macro path.
  void (*children_axis0)(const double* a, const double* b,
                         const double* corners, double* left, double* right);
  void (*children_axis1)(const double* a, const double* b,
                         const double* corners, double* left, double* right);
};

/// The dispatched table: nullptr means "use the scalar loops" (non-x86
/// hosts, or FAIRIDX_FORCE_SCALAR). Resolved once, at first call, from
/// DetectedSimdTier(); afterwards a relaxed atomic load.
const AggregateKernels* ActiveAggregateKernels();

/// Test/bench hook: true swaps the active table to nullptr (scalar
/// fallback) process-wide, false restores detection. The env pin is read
/// only once, so this hook is how differential suites and the
/// scalar-baseline benches compare both dispatch modes in ONE process.
/// Not for concurrent use with in-flight queries (tests flip it between
/// operations).
void ForceScalarAggregateKernelsForTest(bool force);

}  // namespace internal
}  // namespace fairidx

#endif  // FAIRIDX_GEO_AGGREGATE_KERNELS_H_
