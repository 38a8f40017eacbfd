// Canonical, length-limited Huffman coding over integer alphabets.
//
// Used directly by the SZ3 baseline (quantization codes) and as the entropy
// stage of the LZ77 back-end.  Codes are canonical so only the code lengths
// are serialized.  Decoding looks the next min(12, longest code) bits up in a
// prefix table sized to that width (512 entries for a 9-bit code, never more
// than 4096), filled straight from the canonical order without reversal
// loops or scratch vectors; a code longer than the table falls back to a
// bit-by-bit walk of the canonical ranges.
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
/// Inverse of serialize_code_lengths.  `expected_alphabet` is the only
/// alphabet size the caller accepts: any other stored size throws
/// std::runtime_error before anything is allocated.
std::vector<std::uint8_t> deserialize_code_lengths(
    ByteReader& r, std::size_t expected_alphabet);

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
  /// Throws std::runtime_error when the lengths over-subscribe the code
  /// space (Kraft sum above 1), which no encoder output does.
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  /// Inline, and nothing below takes the reader's address, so a caller's
  /// BitReader stays in registers: a code longer than the table is resolved
  /// from a peek of the next max_len_ bits by the out-of-line long_code().
  std::uint32_t decode(BitReader& br) const {
    std::uint32_t entry =
        table_[static_cast<std::size_t>(br.peek_bits(table_bits_))];
    if (entry == 0) [[unlikely]] {
      entry = long_code(static_cast<std::uint32_t>(br.peek_bits(max_len_)));
    }
    br.skip_bits(entry & 31u);
    return entry >> 5;
  }

 private:
  static constexpr unsigned kTableBits = 12;

  /// Table-style entry for the code that starts `window` (the next max_len_
  /// stream bits, first bit lowest); throws when no code matches.
  std::uint32_t long_code(std::uint32_t window) const;

  // Fast path: prefix table over the first table_bits_ arriving bits, entry =
  // (symbol << 5) | code_length, 0 = longer code (or no code).
  std::vector<std::uint32_t> table_;
  unsigned table_bits_ = 0;
  // Slow path: canonical first-code ranges per length.
  std::uint32_t first_code_[kHuffmanMaxLen + 1] = {};
  std::uint32_t first_index_[kHuffmanMaxLen + 1] = {};
  std::uint32_t count_[kHuffmanMaxLen + 1] = {};
  std::vector<std::uint32_t> sorted_symbols_;
  unsigned max_len_ = 0;
};

}  // namespace ipcomp
