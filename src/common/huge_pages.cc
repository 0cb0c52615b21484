#include "common/huge_pages.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace fairidx {

HugePageSpan HugePageInterior(uintptr_t address, size_t bytes) {
  constexpr uintptr_t kMask = kHugePageBytes - 1;
  // A range that would wrap the address space has no interior.
  if (address > UINTPTR_MAX - bytes) return HugePageSpan{};
  const uintptr_t to_aligned = -address & kMask;
  if (to_aligned >= bytes) return HugePageSpan{};
  const uintptr_t begin = address + to_aligned;
  const uintptr_t end = (address + bytes) & ~kMask;
  if (begin >= end) return HugePageSpan{};
  return HugePageSpan{begin, static_cast<size_t>(end - begin)};
}

void AdviseHugePages(const void* data, size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const HugePageSpan span =
      HugePageInterior(reinterpret_cast<uintptr_t>(data), bytes);
  if (span.bytes == 0) return;
  // Advice only: a kernel without THP, or one that refuses, leaves the
  // range on base pages, which is what it was.
  (void)madvise(reinterpret_cast<void*>(span.begin), span.bytes,
                MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace fairidx
