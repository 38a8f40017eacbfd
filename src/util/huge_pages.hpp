// Transparent-huge-page hint for large, fresh buffers.  The one <sys/mman.h>
// in src/, for madvise only: archives are read through FileSource's pread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include <sys/mman.h>

namespace ipcomp {

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// The whole 2 MiB pages inside [p, p + bytes); empty when none fits.
inline std::span<std::byte> huge_page_span(void* p, std::size_t bytes) {
  const std::size_t mis = reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes;
  const std::size_t head = mis == 0 ? 0 : kHugePageBytes - mis;
  if (bytes < head + kHugePageBytes) return {};
  return {static_cast<std::byte*>(p) + head,
          (bytes - head) / kHugePageBytes * kHugePageBytes};
}

/// Ask for transparent huge pages over huge_page_span(p, bytes); call it
/// before any page there is touched.  A hint: failure is ignored, THP
/// `never` makes it a no-op, and it compiles to nothing without MADV_HUGEPAGE.
inline void advise_huge_pages([[maybe_unused]] void* p,
                              [[maybe_unused]] std::size_t bytes) {
#ifdef MADV_HUGEPAGE
  const std::span<std::byte> s = huge_page_span(p, bytes);
  if (!s.empty()) (void)::madvise(s.data(), s.size(), MADV_HUGEPAGE);
#endif
}

}  // namespace ipcomp
