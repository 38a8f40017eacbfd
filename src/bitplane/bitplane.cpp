#include "bitplane/bitplane.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "bitplane/negabinary.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

namespace {

// Plane buffers pack bit j of value j at byte j/8, bit j%8 — i.e. a tile's 8
// bytes are its plane word in little-endian order.  These helpers move
// (possibly partial, for tail tiles) words between buffers and registers.

std::uint64_t load_word(const std::uint8_t* p, std::size_t nbytes) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, nbytes);
    return w;
  } else {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < nbytes; ++i) {
      w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return w;
  }
}

void store_word(std::uint8_t* p, std::size_t nbytes, std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &w, nbytes);
  } else {
    for (std::size_t i = 0; i < nbytes; ++i) {
      p[i] = static_cast<std::uint8_t>(w >> (8 * i));
    }
  }
}

inline std::size_t tile_count(std::size_t n) {
  return (n + kTileValues - 1) / kTileValues;
}

/// Per-tile grain for the plane loops: one tile is 64 values of word-level
/// work, so ~512 tiles (32 Ki values) is where forking a team starts paying.
constexpr std::size_t kTileGrain = 512;

using LossTable = std::array<std::int64_t, kPlaneCount + 1>;

/// Exact truncation-loss table of one chunk whose values OR to `orall`.
/// Dropping the low d bits of v loses decode(v & m_d) = ((v & m_d) ^ M_d) -
/// M_d, where m_d = 2^d - 1 and M_d = kNegabinaryMask & m_d, so entry d is
/// one branch-free max-|x| reduction over the chunk.  For d <= 31 both terms
/// are below 2^31 and the difference fits int32, which vectorizes; d = 32
/// runs in int64 and only when some value has bit 31 set.  Depths at or above
/// the chunk's plane count drop whole values and repeat that entry.  Note
/// the loss is NOT monotone in d (a higher negabinary bit can cancel lower
/// ones), which is why every depth is its own reduction instead of a running
/// maximum.
LossTable chunk_loss_table(std::span<const std::uint32_t> values,
                           std::uint32_t orall) {
  LossTable table{};
  if (orall == 0) return table;
  const unsigned top =
      kPlaneCount - static_cast<unsigned>(std::countl_zero(orall));
  for (unsigned d = 1; d <= std::min(top, kPlaneCount - 1); ++d) {
    const std::uint32_t m = (std::uint32_t{1} << d) - 1u;
    const std::uint32_t md = kNegabinaryMask & m;
    std::int32_t best = 0;
    for (std::uint32_t v : values) {
      const std::int32_t x = static_cast<std::int32_t>((v & m) ^ md) -
                             static_cast<std::int32_t>(md);
      best = std::max(best, x < 0 ? -x : x);
    }
    table[d] = best;
  }
  if (top == kPlaneCount) {
    std::int64_t best = 0;
    for (std::uint32_t v : values) {
      const std::int64_t x = negabinary_decode(v);
      best = std::max(best, x < 0 ? -x : x);
    }
    table[kPlaneCount] = best;
  }
  for (unsigned d = top + 1; d <= kPlaneCount; ++d) table[d] = table[top];
  return table;
}

/// Turn one tile's plane words into predictive residuals in place (paper
/// §4.4.1): word k becomes w_k ^ w_{k+1} ^ ... ^ w_{k+prefix}, where words of
/// planes clear in `mask` (tile_fwd leaves them unwritten) and planes >= 32
/// count as zero.  Returns the planes whose residual can be nonzero:
/// mask | mask>>1 | ... | mask>>prefix.
std::uint32_t predict_tile(std::uint64_t* words, std::uint32_t mask,
                           unsigned prefix) {
  const unsigned top =
      kPlaneCount - static_cast<unsigned>(std::countl_zero(mask));
  for (unsigned k = 0; k < top; ++k) {
    if (((mask >> k) & 1u) == 0) words[k] = 0;
  }
  // Ascending k: the words above k are still raw plane words when read.
  for (unsigned k = 0; k < top; ++k) {
    for (unsigned p = 1; p <= prefix && k + p < top; ++p) {
      words[k] ^= words[k + p];
    }
  }
  std::uint32_t live = mask;
  for (unsigned p = 1; p <= prefix && p < kPlaneCount; ++p) live |= mask >> p;
  return live;
}

/// Chunk width shared by the fused encode pass and truncation_loss_table so
/// both produce the same per-chunk partials (max-merge is exact either way;
/// matching widths just keeps the two paths trivially comparable).
constexpr std::size_t kLossChunk = 1 << 16;

}  // namespace

PlaneBits extract_plane(const TransposeOps& ops,
                        std::span<const std::uint32_t> values, unsigned k) {
  const std::size_t n = values.size();
  PlaneBits out(plane_bytes(n), 0);
  parallel_for(0, tile_count(n), [&](std::size_t t) {
    const std::size_t lo = t * kTileValues;
    const std::size_t cnt = std::min(kTileValues, n - lo);
    const std::uint64_t w = ops.tile_fwd_one(values.data() + lo, cnt, k);
    store_word(out.data() + 8 * t, plane_bytes(cnt), w);
  }, kTileGrain);
  return out;
}

PlaneBits extract_plane(std::span<const std::uint32_t> values, unsigned k) {
  return extract_plane(transpose_ops(), values, k);
}

std::array<PlaneBits, kPlaneCount> extract_all_planes(
    const TransposeOps& ops, std::span<const std::uint32_t> values) {
  const std::size_t n = values.size();
  const std::size_t nbytes = plane_bytes(n);
  std::array<PlaneBits, kPlaneCount> planes;
  for (auto& p : planes) p.assign(nbytes, 0);

  parallel_for(0, tile_count(n), [&](std::size_t t) {
    const std::size_t lo = t * kTileValues;
    const std::size_t cnt = std::min(kTileValues, n - lo);
    std::uint64_t words[kPlaneCount];
    std::uint32_t mask = ops.tile_fwd(values.data() + lo, cnt, words);
    while (mask) {
      const unsigned k = static_cast<unsigned>(std::countr_zero(mask));
      mask &= mask - 1;
      store_word(planes[k].data() + 8 * t, plane_bytes(cnt), words[k]);
    }
  }, kTileGrain);
  return planes;
}

std::array<PlaneBits, kPlaneCount> extract_all_planes(
    std::span<const std::uint32_t> values) {
  return extract_all_planes(transpose_ops(), values);
}

void deposit_plane(const TransposeOps& ops, std::span<std::uint32_t> values,
                   std::span<const std::uint8_t> plane, unsigned k) {
  const PlaneSpan one{k, plane};
  deposit_planes(ops, values, {&one, 1});
}

void deposit_plane(std::span<std::uint32_t> values,
                   std::span<const std::uint8_t> plane, unsigned k) {
  deposit_plane(transpose_ops(), values, plane, k);
}

void deposit_planes(const TransposeOps& ops, std::span<std::uint32_t> values,
                    std::span<const PlaneSpan> planes) {
  if (planes.size() > kPlaneCount) {
    throw std::invalid_argument("deposit_planes: more planes than bits");
  }
  for (const PlaneSpan& p : planes) {
    if (p.k >= kPlaneCount) {
      throw std::invalid_argument("deposit_planes: plane index out of range");
    }
  }
  const std::size_t n = values.size();
  parallel_for(0, tile_count(n), [&](std::size_t t) {
    const std::size_t lo = t * kTileValues;
    const std::size_t cnt = std::min(kTileValues, n - lo);
    std::uint64_t words[kPlaneCount];
    unsigned ks[kPlaneCount];
    std::size_t nk = 0;
    for (const PlaneSpan& p : planes) {
      // A plane may legally cover fewer values (trailing bytes absent =
      // zero); clamp the word load to what it stores.
      if (8 * t >= p.bits.size()) continue;
      const std::size_t avail = std::min<std::size_t>(
          plane_bytes(cnt), p.bits.size() - 8 * t);
      const std::uint64_t w = load_word(p.bits.data() + 8 * t, avail);
      if (w == 0) continue;  // zero-word skip: nothing to OR in this tile
      words[nk] = w;
      ks[nk] = p.k;
      ++nk;
    }
    if (nk) ops.tile_deposit(values.data() + lo, cnt, words, ks, nk);
  }, kTileGrain);
}

void deposit_planes(std::span<std::uint32_t> values,
                    std::span<const PlaneSpan> planes) {
  deposit_planes(transpose_ops(), values, planes);
}

std::array<std::int64_t, kPlaneCount + 1> truncation_loss_table(
    std::span<const std::uint32_t> values) {
  // Per-chunk partial tables merged by max (the per-depth maximum commutes
  // with partitioning the value set).
  const std::size_t n_chunks = (values.size() + kLossChunk - 1) / kLossChunk;
  std::vector<LossTable> partial(n_chunks);
  parallel_chunks(0, values.size(), kLossChunk, [&](std::size_t lo,
                                                    std::size_t hi) {
    const auto chunk = values.subspan(lo, hi - lo);
    std::uint32_t orall = 0;
    for (std::uint32_t v : chunk) orall |= v;
    partial[lo / kLossChunk] = chunk_loss_table(chunk, orall);
  });
  LossTable table{};
  for (const auto& p : partial) {
    for (unsigned d = 0; d <= kPlaneCount; ++d) table[d] = std::max(table[d], p[d]);
  }
  return table;
}

LevelEncoding encode_level(const TransposeOps& ops,
                           std::span<const std::uint32_t> codes,
                           bool with_loss, unsigned prefix_bits) {
  LevelEncoding enc;
  const std::size_t n = codes.size();
  const std::size_t nbytes = plane_bytes(n);
  std::vector<PlaneBits> planes(kPlaneCount);
  for (auto& p : planes) p.assign(nbytes, 0);

  // One chunked pass: each chunk transposes its tiles, turns the plane words
  // into predictive residuals while they are in registers, stores them into
  // the plane buffers (disjoint byte ranges) and, while the codes are still
  // cache-hot, reduces the same values into the chunk's loss table.
  // Chunk-local OR masks and loss tables merge by OR/max, so the result is
  // thread-count independent and bit-identical to the separate plane count /
  // truncation_loss_table / extract_all_planes / predictive_encode_plane
  // sweeps this replaces.
  constexpr std::size_t kChunkTiles = kLossChunk / kTileValues;
  const std::size_t tiles = tile_count(n);
  const std::size_t n_chunks = (tiles + kChunkTiles - 1) / kChunkTiles;
  std::vector<std::uint32_t> chunk_or(n_chunks, 0);
  std::vector<LossTable> chunk_loss(with_loss ? n_chunks : 0);
  parallel_chunks(0, tiles, kChunkTiles, [&](std::size_t t_lo,
                                             std::size_t t_hi) {
    const std::size_t c = t_lo / kChunkTiles;
    std::uint32_t orall = 0;
    for (std::size_t t = t_lo; t < t_hi; ++t) {
      const std::size_t lo = t * kTileValues;
      const std::size_t cnt = std::min(kTileValues, n - lo);
      std::uint64_t words[kPlaneCount];
      std::uint32_t mask = ops.tile_fwd(codes.data() + lo, cnt, words);
      orall |= mask;
      if (prefix_bits != 0 && mask != 0) {
        mask = predict_tile(words, mask, prefix_bits);
      }
      while (mask) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        store_word(planes[k].data() + 8 * t, plane_bytes(cnt), words[k]);
      }
    }
    chunk_or[c] = orall;
    if (with_loss) {
      const std::size_t v_lo = t_lo * kTileValues;
      const std::size_t v_hi = std::min(n, t_hi * kTileValues);
      chunk_loss[c] = chunk_loss_table(codes.subspan(v_lo, v_hi - v_lo), orall);
    }
  });

  std::uint32_t orall = 0;
  for (std::uint32_t m : chunk_or) orall |= m;
  enc.n_planes = kPlaneCount - static_cast<unsigned>(std::countl_zero(orall));
  for (const auto& t : chunk_loss) {
    for (unsigned d = 0; d <= kPlaneCount; ++d) {
      enc.loss[d] = std::max(enc.loss[d], t[d]);
    }
  }
  planes.resize(enc.n_planes);
  enc.planes = std::move(planes);
  return enc;
}

LevelEncoding encode_level(std::span<const std::uint32_t> codes,
                           bool with_loss, unsigned prefix_bits) {
  return encode_level(transpose_ops(), codes, with_loss, prefix_bits);
}

}  // namespace ipcomp
