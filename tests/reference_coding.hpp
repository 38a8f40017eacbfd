// Reference decoders the differential tests compare the shipped ones with.
//
// These are the straightforward forms of the shipped BitReader and LZH
// decoder: a reader that refills one byte at a time, a canonical Huffman
// decoder that walks one bit at a time, and an LZH block decoder that
// push_backs every output byte.  They are deliberately slow and share no
// code with src/ beyond the byte-level ByteReader and the code-length
// deserializer, so a fast-path bug cannot hide in both.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "coding/huffman.hpp"
#include "io/bytes.hpp"

namespace ipcomp::reference {

/// Byte-wise LSB-first bit reader with the shipped reader's contract: reads
/// past the end yield zero bits, at most 64 of them, then throw.
class ByteBitReader {
 public:
  explicit ByteBitReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t get_bit() { return static_cast<std::uint32_t>(get_bits(1)); }

  std::uint64_t get_bits(unsigned n) {
    if (n == 0) return 0;
    if (n > 56) {
      const std::uint64_t lo = get_bits(32);
      return lo | (get_bits(n - 32) << 32);
    }
    const std::uint64_t v = peek_bits(n);
    acc_ >>= n;
    fill_ -= n;
    return v;
  }

  std::uint64_t peek_bits(unsigned n) {
    ensure(n);
    return acc_ & ((std::uint64_t{1} << n) - 1);
  }

  void skip_bits(unsigned n) {
    ensure(n);
    acc_ >>= n;
    fill_ -= n;
  }

  std::size_t bits_consumed() const { return pos_ * 8 - fill_; }

 private:
  void ensure(unsigned n) {
    while (fill_ < n) {
      if (pos_ < data_.size()) {
        acc_ |= static_cast<std::uint64_t>(data_[pos_]) << fill_;
      } else if (pos_ >= data_.size() + 8) {
        throw std::runtime_error("reference: out of data");
      }
      ++pos_;
      fill_ += 8;
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// Canonical Huffman decoding one bit at a time over (length, symbol)
/// ordered ranges; no lookup table.
class BitwiseHuffman {
 public:
  explicit BitwiseHuffman(const std::vector<std::uint8_t>& lengths) {
    for (auto l : lengths) max_len_ = std::max<unsigned>(max_len_, l);
    for (unsigned len = 1; len <= max_len_; ++len) {
      first_code_.push_back(code_);
      first_index_.push_back(static_cast<std::uint32_t>(symbols_.size()));
      for (std::size_t s = 0; s < lengths.size(); ++s) {
        if (lengths[s] == len) symbols_.push_back(static_cast<std::uint32_t>(s));
      }
      count_.push_back(static_cast<std::uint32_t>(symbols_.size()) - first_index_.back());
      code_ = (code_ + count_.back()) << 1;
    }
  }

  std::uint32_t decode(ByteBitReader& br) const {
    std::uint32_t code = 0;
    for (unsigned len = 1; len <= max_len_; ++len) {
      code = (code << 1) | br.get_bit();
      const unsigned i = len - 1;
      if (code >= first_code_[i] && code - first_code_[i] < count_[i]) {
        return symbols_[first_index_[i] + (code - first_code_[i])];
      }
    }
    throw std::runtime_error("reference: invalid code");
  }

 private:
  unsigned max_len_ = 0;
  std::uint32_t code_ = 0;
  std::vector<std::uint32_t> first_code_, first_index_, count_, symbols_;
};

/// Value of a length/distance bucket symbol plus its extra bits.
inline std::uint32_t unbucketize(std::uint32_t sym, std::uint32_t extra) {
  if (sym < 8) return sym;
  const unsigned k = (sym - 8) / 2 + 3;
  const std::uint32_t high = 2 + ((sym - 8) & 1u);
  return (high << (k - 1)) | extra;
}

/// The LZH container decoded with the pieces above, one push_back per byte.
inline Bytes lzh_decompress(std::span<const std::uint8_t> input) {
  constexpr std::size_t kBlockSize = 1u << 18;
  ByteReader r(input);
  std::size_t remaining = r.varint();
  Bytes out;
  while (remaining > 0) {
    const std::size_t raw_size = std::min(kBlockSize, remaining);
    const std::uint8_t is_raw = r.u8();
    const std::size_t len = r.varint();
    const auto payload = r.bytes(len);
    if (is_raw) {
      if (len != raw_size) throw std::runtime_error("reference: raw block size");
      out.insert(out.end(), payload.begin(), payload.end());
    } else {
      ByteReader br_bytes(payload);
      const BitwiseHuffman lit(deserialize_code_lengths(br_bytes, 290));
      const BitwiseHuffman dist(deserialize_code_lengths(br_bytes, 38));
      ByteBitReader br(br_bytes.bytes(br_bytes.varint()));
      const std::size_t end = out.size() + raw_size;
      while (out.size() < end) {
        const std::uint32_t sym = lit.decode(br);
        if (sym < 256) {
          out.push_back(static_cast<std::uint8_t>(sym));
          continue;
        }
        const std::uint32_t lsym = sym - 256;
        const std::uint32_t lextra = lsym < 8 ? 0 : (lsym - 8) / 2 + 2;
        const std::size_t match =
            unbucketize(lsym, static_cast<std::uint32_t>(br.get_bits(lextra))) + 4;
        const std::uint32_t dsym = dist.decode(br);
        const std::uint32_t dextra = dsym < 8 ? 0 : (dsym - 8) / 2 + 2;
        const std::size_t distance =
            unbucketize(dsym, static_cast<std::uint32_t>(br.get_bits(dextra))) + 1;
        if (distance > out.size() - (end - raw_size)) {
          throw std::runtime_error("reference: bad distance");
        }
        if (out.size() + match > end) throw std::runtime_error("reference: overflow");
        const std::size_t src = out.size() - distance;
        for (std::size_t i = 0; i < match; ++i) out.push_back(out[src + i]);
      }
    }
    remaining -= raw_size;
  }
  return out;
}

}  // namespace ipcomp::reference
