// Bit-granular I/O used by the entropy coders and the ZFP-style codec.
//
// Bits are packed LSB-first into a little-endian byte stream: the first bit
// written occupies bit 0 of byte 0.  BitWriter/BitReader must agree on this
// layout; round-trip tests in tests/test_bitstream.cpp pin it down.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "io/bytes.hpp"

namespace ipcomp {

class BitWriter {
 public:
  BitWriter() = default;
  explicit BitWriter(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  void put_bit(std::uint32_t bit) {
    acc_ |= static_cast<std::uint64_t>(bit & 1u) << fill_;
    if (++fill_ == 64) flush_word();
  }

  /// Write the low `n` bits of `v`, LSB first.  n in [0, 64].
  void put_bits(std::uint64_t v, unsigned n) {
    if (n == 0) return;
    if (n < 64) v &= (std::uint64_t{1} << n) - 1;
    acc_ |= v << fill_;
    if (fill_ + n >= 64) {
      unsigned written = 64 - fill_;
      flush_word();
      if (n > written) acc_ = v >> written;
      fill_ = n - written;
    } else {
      fill_ += n;
    }
  }

  /// Unary encoding: `v` zero bits followed by a one bit.
  void put_unary(std::uint64_t v) {
    while (v >= 32) {
      put_bits(0, 32);
      v -= 32;
    }
    put_bits(std::uint64_t{1} << v, static_cast<unsigned>(v + 1));
  }

  std::size_t bit_count() const { return buf_.size() * 8 + fill_; }

  /// Flush partial bits (zero padded) and return the byte stream.
  Bytes finish() {
    while (fill_ > 0) flush_partial_byte();
    return std::move(buf_);
  }

 private:
  void flush_word() {
    // Bulk little-endian store of the full accumulator (compilers collapse
    // the 8 byte stores into one 64-bit write); byte-identical to pushing
    // the bytes one at a time but off the push_back slow path.
    const std::size_t at = buf_.size();
    buf_.resize(at + 8);
    std::uint8_t* p = buf_.data() + at;
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(acc_ >> (8 * i));
    acc_ = 0;
    fill_ = 0;
  }

  void flush_partial_byte() {
    buf_.push_back(static_cast<std::uint8_t>(acc_));
    acc_ >>= 8;
    fill_ = fill_ >= 8 ? fill_ - 8 : 0;
  }

  Bytes buf_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// LSB-first bit reader with lookahead.  Reading past the end of the stream
/// yields zero bits (the writer zero-pads its final byte); consuming more than
/// a full byte beyond the end throws.
///
/// Every member is inline and nothing takes the reader's address, so a
/// decode loop that owns a BitReader keeps its state in registers.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data)
      : data_(data), word_end_(data.size() >= 8 ? data.size() - 7 : 0) {}

  std::uint32_t get_bit() {
    ensure(1);
    std::uint32_t b = static_cast<std::uint32_t>(acc_ & 1u);
    acc_ >>= 1;
    --fill_;
    return b;
  }

  /// Read `n` bits, LSB first.  n in [0, 64].
  std::uint64_t get_bits(unsigned n) {
    if (n <= 56) return take(n);
    std::uint64_t lo = take(32);
    std::uint64_t hi = take(n - 32);
    return lo | (hi << 32);
  }

  /// Look at the next `n` bits (n <= 56) without consuming.  Bits beyond the
  /// end of the stream read as zero.
  std::uint64_t peek_bits(unsigned n) {
    ensure(n);
    std::uint64_t mask = (std::uint64_t{1} << n) - 1;
    return acc_ & mask;
  }

  /// Discard `n` bits previously peeked (n <= current lookahead).
  void skip_bits(unsigned n) {
    ensure(n);
    acc_ >>= n;
    fill_ -= n;
  }

  std::uint64_t get_unary() {
    std::uint64_t v = 0;
    while (get_bit() == 0) ++v;
    return v;
  }

  /// Bits consumed so far (counting virtual zero-padding at the end).
  std::size_t bits_consumed() const { return pos_ * 8 - fill_; }

 private:
  static_assert(std::endian::native == std::endian::little,
                "BitReader loads stream words little-endian");

  /// get_bits for n in [0, 56], without recursion so it always inlines (and
  /// without a branch on n == 0, which decoders hit unpredictably).
  std::uint64_t take(unsigned n) {
    ensure(n);
    std::uint64_t v = acc_ & ((std::uint64_t{1} << n) - 1);
    acc_ >>= n;
    fill_ -= n;
    return v;
  }

  [[noreturn]] static void out_of_data() {
    throw std::runtime_error("BitReader: out of data");
  }

  /// Make at least `n` (<= 56) bits available.  While 8 stream bytes remain
  /// the refill ORs a whole word in at `fill_` and counts only the bytes that
  /// fit; the bits above the new fill are the stream's next bytes at their
  /// own positions, so the next refill ORs the same values over them.  Once
  /// all stream bytes are loaded those bits are zero, which the byte-wise
  /// tail and the bounded zero padding rely on.
  void ensure(unsigned n) {
    if (fill_ >= n) [[likely]] return;
    if (pos_ < word_end_) [[likely]] {
      std::uint64_t word;
      std::memcpy(&word, data_.data() + pos_, 8);
      acc_ |= word << fill_;
      const unsigned bytes = (64 - fill_) >> 3;
      pos_ += bytes;
      fill_ += bytes * 8;
      return;
    }
    while (fill_ < n) {
      if (pos_ < data_.size()) {
        acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << fill_;
        fill_ += 8;
      } else if (pos_ < data_.size() + kMaxPadBits / 8) {
        // Zero padding past the end; bounded so runaway reads still throw.
        ++pos_;
        fill_ += 8;
      } else {
        out_of_data();
      }
    }
  }

  static constexpr unsigned kMaxPadBits = 64;

  std::span<const std::uint8_t> data_;
  std::size_t word_end_;  // a whole word loads from every pos_ below this
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

}  // namespace ipcomp
