// Negabinary (base -2) integer coding (paper §4.4.2).
//
// Progressive bitplane retrieval needs a sign-free representation whose
// high-order planes are zero for values near zero.  Negabinary provides both:
//   n = Σ b_k (-2)^k,   b_k ∈ {0,1}
// The 32-bit encode/decode uses the classic mask trick (also used by ZFP):
//   encode(x) = (x + M) ^ M,  decode(u) = (u ^ M) - M,  M = 0xAAAAAAAA.
//
// Because decoding is *linear over bit positions*, the value lost by zeroing
// the d lowest planes of u is exactly the decode of those d bits in
// isolation.  That makes the loss of a truncation computable per value at
// compression time, which is what the optimizer's δy tables record.
#pragma once

#include <cstdint>
#include <limits>

namespace ipcomp {

inline constexpr std::uint32_t kNegabinaryMask = 0xAAAAAAAAu;

/// Largest magnitudes representable in 32-bit negabinary.
inline constexpr std::int64_t kNegabinaryMax = 0x55555555LL;   //  1431655765
inline constexpr std::int64_t kNegabinaryMin = -0xAAAAAAAALL;  // -2863311530

/// Encode a signed value into 32-bit negabinary.  The caller must keep the
/// value within [kNegabinaryMin, kNegabinaryMax]; quantizers clamp/outlier
/// values far before this range.
inline std::uint32_t negabinary_encode(std::int64_t v) {
  return (static_cast<std::uint32_t>(v) + kNegabinaryMask) ^ kNegabinaryMask;
}

/// Decode 32-bit negabinary back to a signed value.  Must be computed in
/// 64-bit: the negabinary range [-2863311530, 1431655765] does not fit in
/// int32, and (u ^ M) - M only equals Σ b_k(-2)^k without wraparound.
inline std::int64_t negabinary_decode(std::uint32_t u) {
  return static_cast<std::int64_t>(u ^ kNegabinaryMask) -
         static_cast<std::int64_t>(kNegabinaryMask);
}

/// Value contributed by the lowest `d` bits: Σ_{k<d} b_k (-2)^k.
/// Equals decode(u) - decode(u with low d bits cleared) by linearity.
inline std::int64_t negabinary_low_bits_value(std::uint32_t u, unsigned d) {
  if (d == 0) return 0;
  std::uint32_t low = (d >= 32) ? u : (u & ((std::uint32_t{1} << d) - 1u));
  return negabinary_decode(low);
}

/// Worst-case |value| representable in the lowest `d` negabinary bits
/// (paper's closed form: 2/3·2^d − 1/3 for odd d, 2/3·2^d − 2/3 for even d).
/// Odd d maximizes the positive sum (even positions set), even d the
/// negative one (odd positions set); both geometric sums collapse to
/// (2^(d+1) − (d odd ? 1 : 2)) / 3.  `d` must be at most 32.
inline std::int64_t negabinary_uncertainty(unsigned d) {
  return ((std::int64_t{1} << (d + 1)) - ((d & 1u) ? 1 : 2)) / 3;
}

}  // namespace ipcomp
