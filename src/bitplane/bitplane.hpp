// Bitplane extraction, reassembly and truncation-loss accounting.
//
// A level's quantized (negabinary) integers are viewed as 32 bitplanes; plane
// k collects bit k of every integer (paper Fig. 4).  Planes are packed MSB
// (k = 31) first into independent byte buffers so the archive can store and
// serve each plane as its own segment.
//
// All plane traffic runs through the word-parallel transpose engine
// (bitplane/transpose.hpp): 64-value tiles are transposed to/from uint64
// plane words by runtime-dispatched scalar/SSE2/AVX2 kernels.  Every entry
// point has an overload taking an explicit kernel set so tests and
// benchmarks can pin a tier; the default overloads use the ambient
// dispatched tier (IPCOMP_SIMD overridable, see util/cpu.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bitplane/transpose.hpp"
#include "io/bytes.hpp"

namespace ipcomp {

inline constexpr unsigned kPlaneCount = 32;

/// Packed bits of one plane: bit i of integer j lives at byte j/8, bit j%8.
using PlaneBits = Bytes;

/// Number of bytes needed to hold `n` bits.
inline std::size_t plane_bytes(std::size_t n) { return (n + 7) / 8; }

/// Extract plane `k` (0 = LSB ... 31 = MSB) from `values`.
PlaneBits extract_plane(const TransposeOps& ops,
                        std::span<const std::uint32_t> values, unsigned k);
PlaneBits extract_plane(std::span<const std::uint32_t> values, unsigned k);

/// Extract all 32 planes at once (single tiled pass over the values).
std::array<PlaneBits, kPlaneCount> extract_all_planes(
    const TransposeOps& ops, std::span<const std::uint32_t> values);
std::array<PlaneBits, kPlaneCount> extract_all_planes(
    std::span<const std::uint32_t> values);

/// OR plane `k` back into `values` (values' bit k must currently be zero).
void deposit_plane(const TransposeOps& ops, std::span<std::uint32_t> values,
                   std::span<const std::uint8_t> plane, unsigned k);
void deposit_plane(std::span<std::uint32_t> values,
                   std::span<const std::uint8_t> plane, unsigned k);

/// One plane handed to the multi-plane deposit: its index and packed bits
/// (bits.size() == plane_bytes(values.size())).
struct PlaneSpan {
  unsigned k = 0;
  std::span<const std::uint8_t> bits;
};

/// OR several planes into `values` in ONE pass: per 64-value tile, the plane
/// words of every listed plane are loaded (all-zero words skipped) and
/// scattered together, so the values are streamed through cache once instead
/// of once per plane.  Bit-identical to depositing the planes one by one.
void deposit_planes(const TransposeOps& ops, std::span<std::uint32_t> values,
                    std::span<const PlaneSpan> planes);
void deposit_planes(std::span<std::uint32_t> values,
                    std::span<const PlaneSpan> planes);

/// Exact truncation-loss table: entry d is max_i |Σ_{k<d} b_k(-2)^k| over all
/// values, i.e. the worst value lost by dropping the d lowest planes
/// (in quantization-step units).  entry 0 is 0; entries run to 32.
std::array<std::int64_t, kPlaneCount + 1> truncation_loss_table(
    std::span<const std::uint32_t> values);

/// Fused single-pass level encoding: plane count, truncation-loss table and
/// all plane buffers, computed tile-by-tile while the codes are cache-hot.
struct LevelEncoding {
  unsigned n_planes = 0;  ///< highest populated plane + 1 (0: all zero)
  /// Negabinary truncation losses (valid when requested; see encode_level).
  std::array<std::int64_t, kPlaneCount + 1> loss{};
  /// Packed planes, index k in [0, n_planes): raw bits, or predictive
  /// residuals when encode_level ran with prefix_bits > 0.
  std::vector<PlaneBits> planes;
};

/// One pass over `codes` producing the level's plane split.  `with_loss`
/// additionally computes the exact truncation-loss table (backends with
/// their own loss model — e.g. wavelet's measured tables — skip it).
/// `prefix_bits` > 0 emits the predictive residual planes of paper §4.4.1
/// instead of raw planes: plane k holds b_k ^ b_{k+1} ^ ... ^ b_{k+prefix}
/// (bits above 31 are zero), XORed on the transposed tile words, so each
/// plane is exactly predictive_encode_plane(codes, raw plane k, k,
/// prefix_bits), the per-plane reference in eval/mgard/predictive_encode.hpp.
/// n_planes and the loss table never depend on prefix_bits.  Results are
/// bit-identical to plane count + truncation_loss_table + extract_all_planes
/// (+ predictive_encode_plane) run separately.
LevelEncoding encode_level(const TransposeOps& ops,
                           std::span<const std::uint32_t> codes,
                           bool with_loss, unsigned prefix_bits = 0);
LevelEncoding encode_level(std::span<const std::uint32_t> codes,
                           bool with_loss, unsigned prefix_bits = 0);

}  // namespace ipcomp
