// Per-plane predictive encode (paper §4.4.1) on whole integers.
//
// The shipped encoder never calls this: bitplane/bitplane.hpp's encode_level
// forms the predictive residual planes on transposed tile words.  PMGARD
// (mgard/mgard.cpp) decodes its planes with it, and the bitplane tests and
// bench_bitplane use it as the plain reference encode_level and
// predictive_decode_planes must match.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "io/bytes.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

/// Transform plane `k` of `values` (packed) using the higher planes taken
/// directly from `values`: out = plane_k ^ (b_{k+1} ^ ... ^ b_{k+prefix}),
/// bits above 31 zero.  An involution given the prefix bits, so the same call
/// decodes a residual plane once the higher planes are in `values`.
inline Bytes predictive_encode_plane(std::span<const std::uint32_t> values,
                                     std::span<const std::uint8_t> plane_k,
                                     unsigned k, unsigned prefix_bits) {
  Bytes out(plane_k.size(), 0);
  // Work directly on the integers to avoid materializing the prefix planes.
  parallel_for(0, plane_k.size(), [&](std::size_t byte) {
    const std::size_t base = byte * 8;
    const std::size_t lim = std::min<std::size_t>(8, values.size() - base);
    std::uint8_t pred = 0;
    for (std::size_t j = 0; j < lim; ++j) {
      std::uint32_t v = values[base + j];
      std::uint32_t x = 0;
      for (unsigned p = 1; p <= prefix_bits; ++p) {
        unsigned bit = k + p;
        if (bit < 32) x ^= (v >> bit) & 1u;
      }
      pred |= static_cast<std::uint8_t>(x << j);
    }
    out[byte] = plane_k[byte] ^ pred;
  }, /*grain=*/1 << 14);
  return out;
}

}  // namespace ipcomp
