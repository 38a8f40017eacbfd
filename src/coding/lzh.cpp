#include "coding/lzh.hpp"

#include <algorithm>
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

Bucket bucketize(std::uint32_t v) {
  if (v < 8) return {v, 0, 0};
  unsigned k = 31 - std::countl_zero(v);  // v in [2^k, 2^(k+1))
  std::uint32_t sym = 8 + (k - 3) * 2 + ((v >> (k - 1)) & 1u);
  return {sym, k - 1, v & ((1u << (k - 1)) - 1u)};
}

std::uint32_t unbucketize(std::uint32_t sym, std::uint32_t extra) {
  if (sym < 8) return sym;
  unsigned k = (sym - 8) / 2 + 3;
  std::uint32_t high = 2 + ((sym - 8) & 1u);  // 2 or 3 = top two bits
  return (high << (k - 1)) | extra;
}

std::uint32_t max_bucket_symbol(std::uint32_t max_v) {
  return bucketize(max_v).symbol;
}

const std::uint32_t kLenAlphabet = 256 + max_bucket_symbol(kMaxMatch - kMinMatch) + 1;
const std::uint32_t kDistAlphabet = max_bucket_symbol(kBlockSize - 1) + 1;

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

Bytes decompress_block(std::span<const std::uint8_t> in, std::size_t raw_size) {
  ByteReader r(in);
  // The encoder always writes both full alphabets; any other size is forged
  // and would let a symbol past the bucket range reach unbucketize.
  auto lit_lengths = deserialize_code_lengths(r, kLenAlphabet);
  auto dist_lengths = deserialize_code_lengths(r, kDistAlphabet);
  HuffmanDecoder lit_dec(lit_lengths);
  HuffmanDecoder dist_dec(dist_lengths);
  std::size_t bits_size = r.varint();
  BitReader br(r.bytes(bits_size));

  Bytes out;
  out.reserve(raw_size);
  while (out.size() < raw_size) {
    std::uint32_t sym = lit_dec.decode(br);
    if (sym < 256) {
      out.push_back(static_cast<std::uint8_t>(sym));
    } else {
      std::uint32_t lsym = sym - 256;
      std::uint32_t extra_bits = lsym < 8 ? 0 : (lsym - 8) / 2 + 2;
      std::uint32_t len_v = unbucketize(lsym, static_cast<std::uint32_t>(br.get_bits(extra_bits)));
      std::size_t len = len_v + kMinMatch;
      std::uint32_t dsym = dist_dec.decode(br);
      std::uint32_t dextra = dsym < 8 ? 0 : (dsym - 8) / 2 + 2;
      std::size_t dist = unbucketize(dsym, static_cast<std::uint32_t>(br.get_bits(dextra))) + 1;
      if (dist > out.size()) throw std::runtime_error("lzh: bad distance");
      if (out.size() + len > raw_size) throw std::runtime_error("lzh: overflow");
      // Overlapping copies are the point (runs); copy byte-wise.
      std::size_t src = out.size() - dist;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    }
  }
  return out;
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

Bytes lzh_decompress(std::span<const std::uint8_t> input) {
  ByteReader r(input);
  std::size_t total = r.varint();
  Bytes out;
  out.reserve(total);
  std::size_t remaining = total;
  while (remaining > 0) {
    std::size_t raw_size = std::min(kBlockSize, remaining);
    std::uint8_t is_raw = r.u8();
    std::size_t len = r.varint();
    auto payload = r.bytes(len);
    if (is_raw) {
      if (len != raw_size) throw std::runtime_error("lzh: raw block size mismatch");
      out.insert(out.end(), payload.begin(), payload.end());
    } else {
      Bytes blk = decompress_block(payload, raw_size);
      out.insert(out.end(), blk.begin(), blk.end());
    }
    remaining -= raw_size;
  }
  return out;
}

}  // namespace ipcomp
