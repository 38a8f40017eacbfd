// Predictive bitplane coding (paper §4.4.1).
//
// Bitplanes of the same integer are correlated; because retrieval always
// loads planes MSB-first, the bits of higher planes are known when a plane is
// decoded.  Each bit is therefore predicted as the XOR of its `prefix_bits`
// preceding (higher-order) bits and the *prediction residual* is stored:
//   encoded_bit = (b_{k+1} ^ ... ^ b_{k+prefix}) ^ b_k
// The transform is an involution given the prefix planes, so decoding applies
// the same XOR.  The paper measures 2 prefix bits as the sweet spot
// (Table 2); that is the default everywhere.
#pragma once

#include <cstdint>
#include <span>

namespace ipcomp {

inline constexpr unsigned kDefaultPrefixBits = 2;

/// XOR-combine the `prefix_bits` planes above plane `k` into a prediction
/// mask for plane `k`.  `plane(j)` must return the packed bits of plane j for
/// j in (k, k+prefix]; planes above 31 are all zero.
///
/// encode: out = plane_k ^ prediction;  decode: plane_k = out ^ prediction.
/// Both are this same function applied to packed buffers.
void predictive_transform(std::span<const std::uint8_t> plane_k,
                          std::span<const std::uint8_t>* prefix_planes,
                          unsigned prefix_count,
                          std::span<std::uint8_t> out);

/// One freshly fetched plane during batch decode: index and packed residual
/// bits, decoded to true plane bits in place.
struct MutablePlane {
  unsigned k = 0;
  std::span<std::uint8_t> bits;
};

/// Decode a batch of newly fetched planes of one level BEFORE any of them is
/// deposited into `values`.  `planes` must be in fetch order — strictly
/// descending k (MSB first) — because plane k's prediction reads the final
/// bits of planes (k, k+prefix_bits].  Each prefix plane is taken from the
/// batch when it is one of the new planes (already decoded, by the ordering)
/// and extracted from `values` otherwise (resident planes; planes above the
/// top are zero there).  Bit-identical to depositing each plane into
/// `values` and predicting the next from the updated integers, but the XOR
/// runs on packed buffers and the values are only touched by the single
/// multi-plane deposit afterwards.
void predictive_decode_planes(std::span<const std::uint32_t> values,
                              std::span<const MutablePlane> planes,
                              unsigned prefix_bits);

}  // namespace ipcomp
