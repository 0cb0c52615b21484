// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Transparent-huge-page advice for the serving layer's grid-sized arrays:
// the prefix snapshot and per-cell sums (GridAggregates), the per-cell
// dirty stamps (ShardedDeltaStore), Recover's densified cell sums and the
// checkpoint image (BinaryWriter::Reserve). A 1024² grid's prefix array is
// 42 MB; first-touching it in 4 KB pages costs about ten thousand page
// faults, which is what a cold seal or Create spends most of its time on.
//
// The advice is madvise(MADV_HUGEPAGE) on the 2 MB-aligned interior of a
// freshly reserved array, given before the first write. It changes no
// byte the array holds and no vector type: the arrays stay plain
// std::vector / std::string with the default allocator. It is a no-op
// when the interior is empty, off Linux, or when the call fails; the
// kernel's transparent_hugepage mode decides whether it does anything.

#ifndef FAIRIDX_COMMON_HUGE_PAGES_H_
#define FAIRIDX_COMMON_HUGE_PAGES_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fairidx {

/// The PMD huge-page size the advice targets (x86-64 and arm64 with 4 KB
/// base pages).
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// The whole kHugePageBytes-aligned pages inside [address, address +
/// bytes): `begin` rounds up, the end rounds down, and `bytes` is zero
/// when no aligned page fits.
struct HugePageSpan {
  uintptr_t begin = 0;
  size_t bytes = 0;
};
HugePageSpan HugePageInterior(uintptr_t address, size_t bytes);

/// Advises the kernel to back the aligned interior of [data, data +
/// bytes) with transparent huge pages. Call it on freshly reserved memory
/// before the first write: pages already touched stay 4 KB until the
/// kernel's background collapse gets to them.
void AdviseHugePages(const void* data, size_t bytes);

/// `values->assign(count, value)`, with the same contents and the same
/// exact capacity on reallocation, but a reallocation reserves first and
/// advises the fresh array before the fill writes it.
template <typename T>
void AssignHugePageBacked(std::vector<T>* values, size_t count,
                          const T& value) {
  if (values->capacity() < count) {
    std::vector<T> fresh;
    fresh.reserve(count);
    AdviseHugePages(fresh.data(), count * sizeof(T));
    *values = std::move(fresh);
  }
  values->assign(count, value);
}

/// A fresh `count`-element vector of `value`, huge-page advised.
template <typename T>
std::vector<T> HugePageBackedVector(size_t count, const T& value = T{}) {
  std::vector<T> values;
  AssignHugePageBacked(&values, count, value);
  return values;
}

}  // namespace fairidx

#endif  // FAIRIDX_COMMON_HUGE_PAGES_H_
