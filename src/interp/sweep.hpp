// Multi-level interpolation sweep (paper §4.1, Fig. 3).
//
// The input grid is partitioned into L = ceil(log2(max_extent)) levels.  At
// level l (stride s = 2^(l-1)) the points whose coordinates are all multiples
// of 2s are known; the level's targets — points on the s-grid but not the
// 2s-grid — are predicted dimension by dimension: pass t predicts points
// whose coordinate t is an odd multiple of s, using 1-D interpolation along
// dimension t from known points at ±s and ±3s.
//
// The sweep assigns every target a deterministic (level, slot) pair; a level's
// slots order its quantization codes identically during compression and
// every (partial or incremental) reconstruction.  Lines within a pass are
// independent, so passes parallelize across targets.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "interp/interpolation.hpp"
#include "util/dims.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

/// One dimension pass of one level.
struct DimPass {
  unsigned dim = 0;
  std::size_t stride = 1;            // coordinate stride s
  std::size_t slot_offset = 0;       // first slot within the level
  std::size_t targets_per_line = 0;  // odd multiples of s along `dim`
  std::size_t n_lines = 0;           // product of other-dimension grid sizes
};

/// Static description of the level decomposition of a grid.
struct LevelStructure {
  Dims dims;
  unsigned num_levels = 0;                    // L
  std::vector<std::size_t> level_count;       // [level-1] -> #slots
  std::vector<std::vector<DimPass>> passes;   // [level-1] -> passes in order

  static LevelStructure analyze(const Dims& dims) {
    LevelStructure s;
    s.dims = dims;
    std::size_t max_e = dims.max_extent();
    unsigned L = 1;
    while ((std::size_t{1} << L) < max_e) ++L;
    s.num_levels = L;
    s.level_count.assign(L, 0);
    s.passes.assign(L, {});
    for (unsigned l = L; l >= 1; --l) {
      const std::size_t stride = std::size_t{1} << (l - 1);
      std::size_t slot = (l == L) ? 1 : 0;  // slot 0 of the top level = anchor
      for (unsigned t = 0; t < dims.rank(); ++t) {
        std::size_t n_t = dims[t];
        if (stride >= n_t) continue;
        std::size_t targets = ((n_t - 1) / stride + 1) / 2;
        if (targets == 0) continue;
        std::size_t lines = 1;
        for (unsigned j = 0; j < dims.rank(); ++j) {
          if (j == t) continue;
          std::size_t g = (j < t) ? stride : 2 * stride;
          lines *= (dims[j] - 1) / g + 1;
        }
        DimPass p;
        p.dim = t;
        p.stride = stride;
        p.slot_offset = slot;
        p.targets_per_line = targets;
        p.n_lines = lines;
        s.passes[l - 1].push_back(p);
        slot += targets * lines;
      }
      s.level_count[l - 1] = slot;
    }
    return s;
  }

  std::size_t total_count() const {
    std::size_t n = 0;
    for (auto c : level_count) n += c;
    return n;
  }
};

/// Runs the sweep over `data` (in level order L..1, pass order as analyzed),
/// addressing elements through explicit per-dimension strides.
///
/// With `estrides = ls.dims.strides()` this sweeps a dense array.  Passing
/// the strides of an *enclosing* field instead sweeps a strided sub-view —
/// `data` then points at the block's origin element inside the field and
/// `idx` values handed to the visitor are element offsets relative to that
/// origin.  Block reconstruction uses this to sweep each block in place in
/// the reader's field; compression sweeps a dense block copy instead.
///
/// Visitor signature:  T visit(unsigned level_index, std::size_t slot,
///                             std::size_t idx, T predicted)
/// where level_index = level-1 (0 = finest).  The returned value is written
/// to data[idx] before any later prediction can read it.  Compression
/// visitors quantize (original − predicted) and return the reconstruction;
/// decompression visitors return predicted + dequantized difference.
template <typename T, typename Visitor>
void interpolation_sweep_strided(T* data, const LevelStructure& ls,
                                 InterpKind kind,
                                 const std::array<std::size_t, kMaxRank>& estrides,
                                 Visitor&& visit) {
  const Dims& dims = ls.dims;
  const unsigned rank = static_cast<unsigned>(dims.rank());
  const unsigned L = ls.num_levels;

  // The anchor (0,...,0) is the only point known before the top level.
  data[0] = visit(L - 1, 0, 0, static_cast<T>(0));

  for (unsigned l = L; l >= 1; --l) {
    for (const DimPass& p : ls.passes[l - 1]) {
      const unsigned t = p.dim;
      const std::size_t s = p.stride;
      const std::size_t n_t = dims[t];
      const std::size_t est = estrides[t];       // element stride of dim t
      const std::size_t sst = s * est;           // ±s in elements
      const std::size_t s3 = 3 * sst;            // ±3s in elements

      // Mixed-radix decomposition of the line ordinal over the other dims.
      std::size_t radix[kMaxRank] = {};
      std::size_t rstride[kMaxRank] = {};        // element stride per digit
      unsigned n_digits = 0;
      for (unsigned j = 0; j < rank; ++j) {
        if (j == t) continue;
        std::size_t g = (j < t) ? s : 2 * s;
        radix[n_digits] = (dims[j] - 1) / g + 1;
        rstride[n_digits] = estrides[j] * g;
        ++n_digits;
      }

      const bool cubic = (kind == InterpKind::kCubic);
      parallel_for(0, p.n_lines, [&](std::size_t line) {
        // Decode the line's base element offset.
        std::size_t rem = line;
        std::size_t base = 0;
        for (unsigned d = n_digits; d-- > 0;) {
          base += (rem % radix[d]) * rstride[d];
          rem /= radix[d];
        }
        std::size_t slot = p.slot_offset + line * p.targets_per_line;
        std::size_t c = s;  // coordinate along dim t
        std::size_t idx = base + c * est;
        for (std::size_t k = 0; k < p.targets_per_line;
             ++k, c += 2 * s, idx += 2 * sst, ++slot) {
          T pred;
          if (cubic && c >= 3 * s && c + 3 * s < n_t) {
            pred = interp_cubic(data[idx - s3], data[idx - sst],
                                data[idx + sst], data[idx + s3]);
          } else if (c + s < n_t) {
            pred = interp_linear(data[idx - sst], data[idx + sst]);
          } else {
            pred = data[idx - sst];
          }
          data[idx] = visit(l - 1, slot, idx, pred);
        }
      }, /*grain=*/std::max<std::size_t>(1, 16384 / std::max<std::size_t>(1, p.targets_per_line)));
    }
  }
}

/// Dense-array sweep: strides derived from the level structure's own dims.
template <typename T, typename Visitor>
void interpolation_sweep(T* data, const LevelStructure& ls, InterpKind kind,
                         Visitor&& visit) {
  interpolation_sweep_strided(data, ls, kind, ls.dims.strides(),
                              std::forward<Visitor>(visit));
}

}  // namespace ipcomp
