// Canonical, length-limited Huffman coding over integer alphabets.
//
// Used directly by the SZ3 baseline (quantization codes) and as the entropy
// stage of the LZ77 back-end.  Codes are canonical so only the code lengths
// are serialized; decoding uses a 12-bit prefix table with a bit-by-bit
// fallback for longer codes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "io/bitstream.hpp"
#include "io/bytes.hpp"

namespace ipcomp {

/// Maximum code length produced by build_code_lengths.
inline constexpr unsigned kHuffmanMaxLen = 24;

/// Compute length-limited Huffman code lengths from symbol frequencies.
/// Symbols with zero frequency receive length 0 (no code).  The alphabet must
/// satisfy alphabet_size <= 2^kHuffmanMaxLen.
std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs,
                                             unsigned limit = kHuffmanMaxLen);

/// Serialize code lengths compactly (sparse symbol/length pairs).
void serialize_code_lengths(ByteWriter& w, std::span<const std::uint8_t> lengths);
/// Inverse of serialize_code_lengths.  A nonzero `expected_alphabet` is the
/// only alphabet size the caller accepts: any other stored size throws
/// std::runtime_error before anything is allocated.
std::vector<std::uint8_t> deserialize_code_lengths(
    ByteReader& r, std::size_t expected_alphabet = 0);

class HuffmanEncoder {
 public:
  /// Builds canonical codes from code lengths.
  explicit HuffmanEncoder(std::span<const std::uint8_t> lengths);

  void encode(BitWriter& bw, std::uint32_t symbol) const {
    bw.put_bits(reversed_code_[symbol], length_[symbol]);
  }

  /// Fused emission of a code and its raw extra bits as one put_bits call:
  /// code (<= kHuffmanMaxLen bits) in the low bits, extras above it.  The
  /// stream is LSB-first, so this is bit-identical to encode() followed by
  /// put_bits(extra, extra_bits) — one accumulator round-trip instead of two.
  /// Requires length(symbol) + extra_bits <= 64.
  void encode_with_extra(BitWriter& bw, std::uint32_t symbol,
                         std::uint64_t extra, unsigned extra_bits) const {
    const unsigned len = length_[symbol];
    bw.put_bits(reversed_code_[symbol] | (extra << len), len + extra_bits);
  }

  unsigned length(std::uint32_t symbol) const { return length_[symbol]; }

  /// Total encoded bit count for a histogram (for cost estimation).
  std::uint64_t cost_bits(std::span<const std::uint64_t> freqs) const;

 private:
  std::vector<std::uint32_t> reversed_code_;
  std::vector<std::uint8_t> length_;
};

class HuffmanDecoder {
 public:
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  std::uint32_t decode(BitReader& br) const;

 private:
  static constexpr unsigned kTableBits = 12;

  // Fast path: prefix table entry = (symbol << 5) | code_length, 0 = escape.
  std::vector<std::uint32_t> table_;
  // Slow path: canonical first-code ranges per length.
  std::uint32_t first_code_[kHuffmanMaxLen + 1] = {};
  std::uint32_t first_index_[kHuffmanMaxLen + 1] = {};
  std::uint32_t count_[kHuffmanMaxLen + 1] = {};
  std::vector<std::uint32_t> sorted_symbols_;
  unsigned max_len_ = 0;
};

}  // namespace ipcomp
