#include "common/group_order.h"

#include <algorithm>
#include <cstdint>

namespace fairidx {
namespace {

// Flipping the sign bit maps int order onto uint32 order: INT_MIN -> 0,
// -1 -> 0x7fffffff, 0 -> 0x80000000, INT_MAX -> 0xffffffff.
uint32_t Key(int id) { return static_cast<uint32_t>(id) ^ 0x80000000u; }

// Bucket start offsets for one 16-bit digit of the keys. The slots span
// only the digit values that occur, so a small input with nearby ids does
// not pay for all 2^16 of them.
struct DigitBuckets {
  int shift = 0;
  uint32_t first = 0;
  std::vector<size_t> start;

  uint32_t Slot(uint32_t key) const {
    return ((key >> shift) & 0xffffu) - first;
  }
};

// `keys` must be non-empty.
DigitBuckets CountDigit(const std::vector<uint32_t>& keys, int shift) {
  uint32_t lo = 0xffffu;
  uint32_t hi = 0;
  for (uint32_t key : keys) {
    const uint32_t digit = (key >> shift) & 0xffffu;
    lo = std::min(lo, digit);
    hi = std::max(hi, digit);
  }
  DigitBuckets buckets{shift, lo, std::vector<size_t>(hi - lo + 1, 0)};
  for (uint32_t key : keys) ++buckets.start[buckets.Slot(key)];
  size_t sum = 0;
  for (size_t& slot : buckets.start) {
    const size_t count = slot;
    slot = sum;
    sum += count;
  }
  return buckets;
}

// Stable counting sort by the low 16 key bits, then by the high 16 bits.
// `row_at(k)` is the k-th input row.
template <typename RowAt>
std::vector<size_t> RadixOrder(const std::vector<int>& ids, size_t n,
                               RowAt row_at) {
  if (n == 0) return {};
  std::vector<uint32_t> keys(n);
  for (size_t k = 0; k < n; ++k) keys[k] = Key(ids[row_at(k)]);
  DigitBuckets low = CountDigit(keys, 0);
  DigitBuckets high = CountDigit(keys, 16);
  std::vector<size_t> by_low(n);
  for (size_t k = 0; k < n; ++k) by_low[low.start[low.Slot(keys[k])]++] = k;
  std::vector<size_t> order(n);
  for (size_t k : by_low) order[high.start[high.Slot(keys[k])]++] = row_at(k);
  return order;
}

}  // namespace

std::vector<size_t> GroupOrder(const std::vector<int>& ids) {
  return RadixOrder(ids, ids.size(), [](size_t k) { return k; });
}

std::vector<size_t> GroupOrder(const std::vector<int>& ids,
                               const std::vector<size_t>& rows) {
  return RadixOrder(ids, rows.size(), [&rows](size_t k) { return rows[k]; });
}

}  // namespace fairidx
