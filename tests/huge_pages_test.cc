// The huge-page advice helper (common/huge_pages.h): the aligned-interior
// arithmetic, and an assign that leaves exactly what std::vector::assign
// leaves — the advice may change how the kernel backs an array, never a
// byte in it.

#include "common/huge_pages.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "geo/grid_aggregates.h"

namespace fairidx {
namespace {

constexpr uintptr_t kMb = uintptr_t{1} << 20;

void ExpectSpan(HugePageSpan span, uintptr_t begin, size_t bytes) {
  EXPECT_EQ(span.bytes, bytes);
  if (bytes != 0) EXPECT_EQ(span.begin, begin);
}

TEST(HugePageInteriorTest, AlignedStartKeepsEveryWholePage) {
  ExpectSpan(HugePageInterior(8 * kMb, 2 * kMb), 8 * kMb, 2 * kMb);
  ExpectSpan(HugePageInterior(8 * kMb, 5 * kMb), 8 * kMb, 4 * kMb);
  ExpectSpan(HugePageInterior(8 * kMb, 42 * kMb), 8 * kMb, 42 * kMb);
}

TEST(HugePageInteriorTest, UnalignedStartRoundsInwardAtBothEnds) {
  // A malloc'd 42 MB array: the data starts 16 bytes past a page.
  ExpectSpan(HugePageInterior(6 * kMb + 16, 42 * kMb), 8 * kMb, 40 * kMb);
  ExpectSpan(HugePageInterior(6 * kMb + 16, 42 * kMb - 16), 8 * kMb,
             40 * kMb);
  ExpectSpan(HugePageInterior(1 * kMb, 5 * kMb), 2 * kMb, 4 * kMb);
}

TEST(HugePageInteriorTest, UnderTwoMegabytesHasNoInterior) {
  ExpectSpan(HugePageInterior(0, 0), 0, 0);
  ExpectSpan(HugePageInterior(4 * kMb, 0), 0, 0);
  ExpectSpan(HugePageInterior(4 * kMb, 2 * kMb - 1), 0, 0);
  ExpectSpan(HugePageInterior(3 * kMb, 2 * kMb - 4096), 0, 0);
  ExpectSpan(HugePageInterior(4 * kMb + 16, kMb), 0, 0);
}

TEST(HugePageInteriorTest, UnderFourMegabytesHoldsAtMostOnePage) {
  // Whether one page fits depends on where the array starts.
  ExpectSpan(HugePageInterior(4 * kMb, 3 * kMb), 4 * kMb, 2 * kMb);
  ExpectSpan(HugePageInterior(3 * kMb, 3 * kMb), 4 * kMb, 2 * kMb);
  ExpectSpan(HugePageInterior(2 * kMb + kMb / 2, 3 * kMb), 0, 0);
  ExpectSpan(HugePageInterior(2 * kMb + 16, 4 * kMb - 32), 0, 0);
  ExpectSpan(HugePageInterior(2 * kMb + 16, 4 * kMb - 16), 4 * kMb,
             2 * kMb);
}

TEST(HugePageInteriorTest, RangesThatWouldWrapHaveNoInterior) {
  ExpectSpan(HugePageInterior(UINTPTR_MAX - kMb, 4 * kMb), 0, 0);
  ExpectSpan(HugePageInterior(UINTPTR_MAX - 16, 8), 0, 0);
}

TEST(HugePagesTest, AdviceOnAnyRangeIsHarmless) {
  AdviseHugePages(nullptr, 0);
  std::vector<char> small(100, 'x');
  AdviseHugePages(small.data(), small.size());
  std::vector<char> big(5 * kMb, 'y');
  AdviseHugePages(big.data(), big.size());
  EXPECT_EQ(std::vector<char>(100, 'x'), small);
  EXPECT_EQ(std::vector<char>(5 * kMb, 'y'), big);
}

// Runs AssignHugePageBacked and std::vector::assign from the same start
// state and expects the same bytes, size and capacity.
template <typename T>
void ExpectAssignMatchesStd(const std::vector<T>& start, size_t count,
                            const T& value) {
  std::vector<T> got = start;
  std::vector<T> want = start;
  AssignHugePageBacked(&got, count, value);
  want.assign(count, value);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.capacity(), want.capacity());
  if (count != 0) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), count * sizeof(T)), 0);
  }
}

TEST(HugePagesTest, AssignMatchesStdAssignForPrefixEntries) {
  using PrefixEntry = GridAggregates::PrefixEntry;
  PrefixEntry filled;
  filled.count = 3;
  filled.labels = 1;
  filled.scores = 0.75;
  filled.residuals = -0.25;
  filled.cell_abs = 0.5;
  // 1025² padded entries: a 42 MB array with a huge-page interior, as
  // well as sizes too small to have one.
  const size_t grid = size_t{1025} * 1025;
  for (const size_t count : {size_t{0}, size_t{7}, size_t{60000}, grid}) {
    SCOPED_TRACE(count);
    ExpectAssignMatchesStd<PrefixEntry>({}, count, PrefixEntry{});
    ExpectAssignMatchesStd<PrefixEntry>({}, count, filled);
    // Reallocation from a smaller array, and reuse of a larger one.
    ExpectAssignMatchesStd(std::vector<PrefixEntry>(3, filled), count,
                           PrefixEntry{});
    ExpectAssignMatchesStd(std::vector<PrefixEntry>(count + 5, filled),
                           count, PrefixEntry{});
  }
  const std::vector<PrefixEntry> fresh =
      HugePageBackedVector<PrefixEntry>(grid);
  const std::vector<PrefixEntry> want(grid);
  ASSERT_EQ(fresh.size(), want.size());
  EXPECT_EQ(fresh.capacity(), fresh.size());
  EXPECT_EQ(
      std::memcmp(fresh.data(), want.data(), grid * sizeof(PrefixEntry)), 0);
}

TEST(HugePagesTest, AssignMatchesStdAssignForDirtyStamps) {
  const size_t cells = size_t{1024} * 1024;
  for (const size_t count : {size_t{0}, size_t{1}, size_t{300000}, cells}) {
    SCOPED_TRACE(count);
    ExpectAssignMatchesStd<long long>({}, count, -1);
    ExpectAssignMatchesStd(std::vector<long long>(2, 9), count, -1LL);
    ExpectAssignMatchesStd(std::vector<long long>(count + 1, 9), count, -1LL);
  }
  const std::vector<long long> stamps =
      HugePageBackedVector<long long>(cells, -1);
  EXPECT_EQ(stamps, std::vector<long long>(cells, -1));
  EXPECT_EQ(stamps.capacity(), cells);
}

}  // namespace
}  // namespace fairidx
