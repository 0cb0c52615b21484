// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Group-by on integer ids in linear time. GroupOrder is a stable LSD radix
// sort of row indices by id: two 16-bit counting passes over the
// order-preserving key uint32(id) ^ 0x80000000, so every int id (negatives,
// INT_MIN, INT_MAX) takes the same path. Groups come out in ascending id and
// the rows of one group keep their input order, so sums built on it add
// rows in row order within a group and groups in ascending id, whatever the
// ids' spread.

#ifndef FAIRIDX_COMMON_GROUP_ORDER_H_
#define FAIRIDX_COMMON_GROUP_ORDER_H_

#include <cstddef>
#include <vector>

#include "common/span.h"

namespace fairidx {

/// Rows 0..ids.size()-1 ordered by ids[row]: ascending id, and input order
/// within one id. O(n + 2^16): each pass's buckets span only the digit
/// values that occur, and nothing is allocated per id.
std::vector<size_t> GroupOrder(const std::vector<int>& ids);

/// The entries of `rows` ordered the same way by ids[row]. A repeated row
/// appears as often as it does in `rows`. Every row must be < ids.size()
/// (the caller checks).
std::vector<size_t> GroupOrder(const std::vector<int>& ids,
                               const std::vector<size_t>& rows);

/// Calls fn(id, rows) once per group of `order` (a GroupOrder result over
/// `ids`), in ascending id; `rows` views that group's run of `order`.
template <typename Fn>
void ForEachGroup(const std::vector<int>& ids,
                  const std::vector<size_t>& order, Fn&& fn) {
  size_t begin = 0;
  while (begin < order.size()) {
    const int id = ids[order[begin]];
    size_t end = begin + 1;
    while (end < order.size() && ids[order[end]] == id) ++end;
    fn(id, Span<size_t>(order.data() + begin, end - begin));
    begin = end;
  }
}

}  // namespace fairidx

#endif  // FAIRIDX_COMMON_GROUP_ORDER_H_
