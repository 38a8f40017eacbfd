#include "coding/lzh.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "coding/huffman.hpp"
#include "io/bitstream.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

namespace {

constexpr std::size_t kBlockSize = 1u << 18;  // 256 KiB independent blocks
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + 65535;
constexpr unsigned kHashBits = 16;
constexpr int kMaxChain = 48;

// Exponential bucketing shared by lengths (v = len - kMinMatch) and
// distances (v = dist - 1): 8 direct symbols then two buckets per power of
// two with (k-1) extra bits.
struct Bucket {
  std::uint32_t symbol;
  std::uint32_t extra_bits;
  std::uint32_t extra_value;
};

constexpr Bucket bucketize(std::uint32_t v) {
  if (v < 8) return {v, 0, 0};
  unsigned k = 31 - std::countl_zero(v);  // v in [2^k, 2^(k+1))
  std::uint32_t sym = 8 + (k - 3) * 2 + ((v >> (k - 1)) & 1u);
  return {sym, k - 1, v & ((1u << (k - 1)) - 1u)};
}

constexpr std::uint32_t kLenBuckets = bucketize(kMaxMatch - kMinMatch).symbol + 1;
constexpr std::uint32_t kLenAlphabet = 256 + kLenBuckets;
constexpr std::uint32_t kDistAlphabet = bucketize(kBlockSize - 1).symbol + 1;

/// Decode side of a bucket symbol: the smallest value it stands for (plus
/// `offset`, which undoes the encoder's bias) and its extra-bit count.
struct BucketBase {
  std::uint32_t base;
  std::uint32_t extra_bits;
};

template <std::uint32_t N>
constexpr std::array<BucketBase, N> bucket_bases(std::uint32_t offset) {
  std::array<BucketBase, N> table{};
  for (std::uint32_t sym = 0; sym < N; ++sym) {
    if (sym < 8) {
      table[sym] = {sym + offset, 0};
    } else {
      const std::uint32_t extra_bits = (sym - 8) / 2 + 2;
      const std::uint32_t high = 2 + ((sym - 8) & 1u);  // top two bits
      table[sym] = {(high << extra_bits) + offset, extra_bits};
    }
  }
  return table;
}

constexpr auto kLengthBases = bucket_bases<kLenBuckets>(kMinMatch);
constexpr auto kDistanceBases = bucket_bases<kDistAlphabet>(1);

struct Token {
  std::uint32_t literal_or_len;  // < 256: literal; >= 256: match length
  std::uint32_t distance;        // valid when match
};

std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t max_len) {
  std::size_t n = 0;
  while (n + 8 <= max_len) {
    std::uint64_t va, vb;
    std::memcpy(&va, a + n, 8);
    std::memcpy(&vb, b + n, 8);
    if (va != vb) {
      return n + std::countr_zero(va ^ vb) / 8;
    }
    n += 8;
  }
  while (n < max_len && a[n] == b[n]) ++n;
  return n;
}

std::vector<Token> tokenize(std::span<const std::uint8_t> in) {
  std::vector<Token> tokens;
  tokens.reserve(in.size() / 4 + 8);
  const std::size_t n = in.size();
  if (n < kMinMatch + 1) {
    for (std::size_t i = 0; i < n; ++i) tokens.push_back({in[i], 0});
    return tokens;
  }

  std::vector<std::int32_t> head(std::size_t{1} << kHashBits, -1);
  std::vector<std::int32_t> prev(n, -1);
  auto hash = [&](std::size_t pos) {
    return (read32(in.data() + pos) * 0x9E3779B1u) >> (32 - kHashBits);
  };

  std::size_t pos = 0;
  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= n) {
      std::uint32_t h = hash(pos);
      std::int32_t cand = head[h];
      const std::size_t max_len = std::min(kMaxMatch, n - pos);
      for (int chain = 0; cand >= 0 && chain < kMaxChain; ++chain) {
        std::size_t len = match_length(in.data() + cand, in.data() + pos, max_len);
        if (len > best_len) {
          best_len = len;
          best_dist = pos - static_cast<std::size_t>(cand);
          if (len >= max_len) break;
        }
        cand = prev[cand];
      }
      prev[pos] = head[h];
      head[h] = static_cast<std::int32_t>(pos);
    }

    if (best_len >= kMinMatch) {
      tokens.push_back({256 + static_cast<std::uint32_t>(best_len), best_dist == 0 ? 1u : static_cast<std::uint32_t>(best_dist)});
      // Insert hash entries for the skipped positions (bounded for speed).
      std::size_t insert_end = std::min(pos + best_len, n - kMinMatch);
      for (std::size_t p = pos + 1; p < insert_end; ++p) {
        std::uint32_t h = hash(p);
        prev[p] = head[h];
        head[h] = static_cast<std::int32_t>(p);
      }
      pos += best_len;
    } else {
      tokens.push_back({in[pos], 0});
      ++pos;
    }
  }
  return tokens;
}

Bytes compress_block(std::span<const std::uint8_t> in) {
  auto tokens = tokenize(in);

  std::vector<std::uint64_t> lit_freq(kLenAlphabet, 0);
  std::vector<std::uint64_t> dist_freq(kDistAlphabet, 0);
  for (const Token& t : tokens) {
    if (t.literal_or_len < 256) {
      ++lit_freq[t.literal_or_len];
    } else {
      std::uint32_t len_v = t.literal_or_len - 256 - kMinMatch;
      ++lit_freq[256 + bucketize(len_v).symbol];
      ++dist_freq[bucketize(t.distance - 1).symbol];
    }
  }

  auto lit_lengths = build_code_lengths(lit_freq);
  auto dist_lengths = build_code_lengths(dist_freq);
  HuffmanEncoder lit_enc(lit_lengths);
  HuffmanEncoder dist_enc(dist_lengths);

  ByteWriter w;
  serialize_code_lengths(w, lit_lengths);
  serialize_code_lengths(w, dist_lengths);

  BitWriter bw(in.size() / 2 + 64);
  for (const Token& t : tokens) {
    if (t.literal_or_len < 256) {
      lit_enc.encode(bw, t.literal_or_len);
    } else {
      std::uint32_t len_v = t.literal_or_len - 256 - kMinMatch;
      Bucket lb = bucketize(len_v);
      lit_enc.encode_with_extra(bw, 256 + lb.symbol, lb.extra_value, lb.extra_bits);
      Bucket db = bucketize(t.distance - 1);
      dist_enc.encode_with_extra(bw, db.symbol, db.extra_value, db.extra_bits);
    }
  }
  Bytes bits = bw.finish();
  w.varint(bits.size());
  w.bytes(bits);
  return w.take();
}

/// Decode one compressed block into `out`, which is exactly its raw size.
void decompress_block(std::span<const std::uint8_t> in, std::span<std::uint8_t> out) {
  ByteReader r(in);
  // The encoder always writes both full alphabets; any other size is forged
  // and would let a symbol past the bucket tables through.
  const HuffmanDecoder lit_dec(deserialize_code_lengths(r, kLenAlphabet));
  const HuffmanDecoder dist_dec(deserialize_code_lengths(r, kDistAlphabet));
  std::size_t bits_size = r.varint();
  BitReader br(r.bytes(bits_size));

  std::uint8_t* const dst = out.data();
  const std::size_t raw_size = out.size();
  std::size_t pos = 0;
  while (pos < raw_size) {
    const std::uint32_t sym = lit_dec.decode(br);
    if (sym < 256) {
      dst[pos++] = static_cast<std::uint8_t>(sym);
      continue;
    }
    const BucketBase lb = kLengthBases[sym - 256];
    const std::size_t len = lb.base + br.get_bits(lb.extra_bits);
    const BucketBase db = kDistanceBases[dist_dec.decode(br)];
    const std::size_t dist = db.base + br.get_bits(db.extra_bits);
    if (dist > pos) throw std::runtime_error("lzh: bad distance");
    if (len > raw_size - pos) throw std::runtime_error("lzh: overflow");
    std::uint8_t* const to = dst + pos;
    const std::uint8_t* const from = to - dist;
    if (dist == 1) {
      std::memset(to, *from, len);
    } else if (len <= 16 && dist >= 16 && raw_size - pos >= 16) {
      // A short match with room behind it: one fixed-size copy instead of a
      // size-dispatched call.  The bytes past `len` are rewritten by the
      // tokens that fill the rest of the block.
      std::memcpy(to, from, 16);
    } else if (dist >= len) {
      std::memcpy(to, from, len);
    } else {
      // Overlapping copies are the point (runs): each byte may read one
      // this match just wrote.
      for (std::size_t i = 0; i < len; ++i) to[i] = from[i];
    }
    pos += len;
  }
}

}  // namespace

Bytes lzh_compress(std::span<const std::uint8_t> input) {
  const std::size_t n_blocks = input.empty() ? 0 : (input.size() + kBlockSize - 1) / kBlockSize;
  std::vector<Bytes> blocks(n_blocks);
  std::vector<std::uint8_t> raw_flag(n_blocks, 0);

  parallel_for(0, n_blocks, [&](std::size_t b) {
    std::size_t off = b * kBlockSize;
    std::size_t len = std::min(kBlockSize, input.size() - off);
    auto chunk = input.subspan(off, len);
    Bytes packed = compress_block(chunk);
    if (packed.size() >= len) {
      blocks[b].assign(chunk.begin(), chunk.end());
      raw_flag[b] = 1;
    } else {
      blocks[b] = std::move(packed);
    }
  }, /*grain=*/1);

  ByteWriter w(input.size() / 2 + 64);
  w.varint(input.size());
  for (std::size_t b = 0; b < n_blocks; ++b) {
    w.u8(raw_flag[b]);
    w.varint(blocks[b].size());
    w.bytes(blocks[b]);
  }
  return w.take();
}

Bytes lzh_decompress(std::span<const std::uint8_t> input, std::size_t expected_size) {
  ByteReader r(input);
  if (r.varint() != expected_size) throw std::runtime_error("lzh: stored size mismatch");
  Bytes out(expected_size);
  for (std::size_t off = 0; off < expected_size; off += kBlockSize) {
    const std::span<std::uint8_t> block(out.data() + off,
                                        std::min(kBlockSize, expected_size - off));
    const std::uint8_t is_raw = r.u8();
    const std::size_t len = r.varint();
    const auto payload = r.bytes(len);
    if (is_raw) {
      if (len != block.size()) throw std::runtime_error("lzh: raw block size mismatch");
      std::memcpy(block.data(), payload.data(), len);
    } else {
      decompress_block(payload, block);
    }
  }
  return out;
}

std::size_t lzh_stored_size(std::span<const std::uint8_t> input) {
  ByteReader r(input);
  const std::size_t total = r.varint();
  // Every block costs at least a flag byte and a one-byte length.
  const std::size_t blocks = total / kBlockSize + (total % kBlockSize != 0);
  if (blocks > r.remaining() / 2) throw std::runtime_error("lzh: stored size exceeds input");
  return total;
}

}  // namespace ipcomp
