// Per-segment codec orchestration.
//
// Every archive segment is independently compressed by one of a small family
// of methods; a one-byte tag records the choice, so the segment format is
// self-describing and adding a method never changes the container.  The
// caller always knows the decoded size (plane sizes are derivable from the
// header), so methods need not embed it.
//
// The method is chosen by entropy-probed routing.  One word-parallel pass
// measures the segment (set-bit count, nonzero bytes; byte entropy only when
// the cheap counters are inconclusive) and routes it to the one codec that
// fits its shape — no speculative encodes:
//
//   all bits zero                          -> kEmpty    (1 byte)
//   sparse isolated bits (see thresholds)  -> kBitpack  (gap varints)
//   zero bytes dominate                    -> kRle      (zero runs)
//   near-random bytes (entropy >= cutoff)  -> kRaw      (stored)
//   otherwise structured                   -> kLzh      (LZ77+Huffman)
//
// A routed encode that fails to beat raw storage still falls back to kRaw,
// so the output is never more than one tag byte over the input.
//
// Decoding dispatches on the tag alone, so archives written by earlier
// releases — whose encoders tried RLE and LZH and kept the smaller — decode
// through the same switch.
#pragma once

#include <span>

#include "io/bytes.hpp"

namespace ipcomp {

enum class CodecMethod : std::uint8_t {
  kEmpty = 0,    // all zero bytes: payload is empty
  kRaw = 1,      // stored verbatim
  kRle = 2,      // zero-run RLE
  kLzh = 3,      // LZ77 + Huffman
  kBitpack = 4,  // varint gaps between set bits (coding/bitpack.hpp)
};

const char* to_string(CodecMethod method);

// ---- probe thresholds (README "Codec orchestration" routing table) -------

/// Route to kBitpack when set bits are rarer than 1 in kBitpackMaxDensity
/// bits AND mostly isolated (<= kBitpackMaxBitsPerByte per nonzero byte —
/// clustered bits pack 8-per-byte and belong to the byte-granular codecs).
inline constexpr std::size_t kBitpackMaxDensity = 32;
inline constexpr std::size_t kBitpackMaxBitsPerByte = 2;
/// Route to kRle when at least (kRleZeroByteNum/kRleZeroByteDen) of the
/// bytes are zero: RLE costs ~2 bytes per nonzero byte, so past this point
/// LZ77's edge on the residue cannot recoup its per-block setup.  Below it,
/// fall through to the entropy branch (structured residue still goes LZH).
inline constexpr std::size_t kRleZeroByteNum = 7;
inline constexpr std::size_t kRleZeroByteDen = 8;
/// Dense segments at or above this byte entropy (bits/byte) are effectively
/// incompressible residual noise: store raw instead of running LZ77 just to
/// fall back.  Below it, structure remains and LZH earns its cost.
inline constexpr double kRawEntropyBits = 7.6;
/// LZ77 setup cost dominates under this size; short structured segments
/// route to RLE instead (matches the legacy `input.size() >= 64` gate).
inline constexpr std::size_t kLzhMinBytes = 64;

/// One word-parallel measurement pass over a segment: everything the router
/// needs except the (lazily computed) byte entropy.
struct CodecProbe {
  std::size_t bits = 0;           // input.size() * 8
  std::size_t ones = 0;           // set bits
  std::size_t nonzero_bytes = 0;  // bytes with any bit set
};

CodecProbe codec_probe(std::span<const std::uint8_t> input);

/// The routing decision for a measured segment (byte entropy is
/// computed here only when the dense branch needs it).  Exposed for tests
/// and the routing-census benchmarks.
CodecMethod codec_route(const CodecProbe& probe,
                        std::span<const std::uint8_t> input);

/// Compress with the routed method; the method's tag leads the output.
Bytes codec_compress(std::span<const std::uint8_t> input);

/// Inverse of codec_compress; `output_size` is the decoded byte count.
/// Dispatches on the tag byte and rejects unknown tags, so archives written
/// by any earlier encoder decode too.
Bytes codec_decompress(std::span<const std::uint8_t> input, std::size_t output_size);

}  // namespace ipcomp
