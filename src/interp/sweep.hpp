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
// every (partial or progressive) reconstruction, in any visit order.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "interp/interpolation.hpp"
#include "util/dims.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

/// One dimension pass of one level (stride s): its targets have coordinate
/// `dim` at odd multiples of s, coordinates j < dim on the s-grid and j > dim
/// on the 2s-grid.  Slots run line by line along `dim`, the lines ordered
/// row-major over the other coordinates (dimension 0 slowest).
struct DimPass {
  unsigned dim = 0;
  std::size_t slot_offset = 0;       // first slot within the level
  std::size_t count[kMaxRank] = {};  // points per dim; [dim] = per line
  std::size_t sstep[kMaxRank] = {};  // slot step per dim
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
        if (stride >= dims[t]) continue;
        DimPass p;
        p.dim = t;
        p.slot_offset = slot;
        std::size_t n = ((dims[t] - 1) / stride + 1) / 2;  // odd multiples
        p.count[t] = n;
        p.sstep[t] = 1;
        for (unsigned j = static_cast<unsigned>(dims.rank()); j-- > 0;) {
          if (j == t) continue;
          const std::size_t g = (j < t) ? stride : 2 * stride;
          p.count[j] = (dims[j] - 1) / g + 1;
          p.sstep[j] = n;
          n *= p.count[j];
        }
        s.passes[l - 1].push_back(p);
        slot += n;
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

namespace sweep_detail {

enum class Kernel : std::uint8_t { kLinear, kCubic, kCopy };

/// Visits n targets idx, idx + step, ... with slots slot, slot + sstep, ...,
/// predicting each by kernel k from its neighbours at ±d (cubic: also ±3d).
/// Each kernel gets its own loop, so no loop carries a kernel branch.
template <typename T, typename Visitor>
inline void run_row(Kernel k, T* data, unsigned li, std::size_t idx,
                    std::size_t step, std::size_t slot, std::size_t sstep,
                    std::size_t n, std::size_t d, Visitor& visit) {
  auto row = [&](auto predict) {
    for (; n > 0; --n, idx += step, slot += sstep) {
      data[idx] = visit(li, slot, idx, predict(idx));
    }
  };
  switch (k) {
    case Kernel::kCubic:
      return row([&](std::size_t i) {
        return interp_cubic(data[i - 3 * d], data[i - d], data[i + d],
                            data[i + 3 * d]);
      });
    case Kernel::kLinear:
      return row([&](std::size_t i) {
        return interp_linear(data[i - d], data[i + d]);
      });
    case Kernel::kCopy:
      return row([&](std::size_t i) { return data[i - d]; });
  }
}

/// Kernels of one pass's targets along its dimension (extent n, stride s):
/// target k sits at c = (2k+1)s.  Cubic needs c ≥ 3s and c + 3s < n, linear
/// needs c + s < n, and a last target past both copies its left neighbour.
/// In target order: linear [0, end[0]), cubic [end[0], end[1]), linear
/// [end[1], end[2]), copy [end[2], end[3]).
struct KernelRanges {
  std::size_t end[4] = {};

  static KernelRanges of(std::size_t n, std::size_t s, InterpKind kind) {
    const std::size_t q = (n - 1) / s;  // last s-grid index along the dim
    const std::size_t cubic_end = q >= 2 ? (q - 2) / 2 : 0;
    const bool cubic = kind == InterpKind::kCubic && cubic_end > 1;
    return {{cubic ? 1 : q / 2, cubic ? cubic_end : q / 2, q / 2, (q + 1) / 2}};
  }

  std::size_t count() const { return end[3]; }

  Kernel at(std::size_t k) const {
    if (k < end[0]) return Kernel::kLinear;
    if (k < end[1]) return Kernel::kCubic;
    return k < end[2] ? Kernel::kLinear : Kernel::kCopy;
  }

  /// Targets [k0, k1) of a row along this dimension, target k at
  /// idx0 + k*step with slot slot0 + k: one run per kernel range.
  template <typename T, typename Visitor>
  void run(std::size_t k0, std::size_t k1, T* data, unsigned li,
           std::size_t idx0, std::size_t step, std::size_t slot0,
           std::size_t d, Visitor& visit) const {
    for (unsigned r = 0; r < 4; ++r) {
      const std::size_t lo = std::max(k0, r == 0 ? 0 : end[r - 1]);
      const std::size_t hi = std::min(k1, end[r]);
      if (lo < hi) {
        run_row(at(lo), data, li, idx0 + lo * step, step, slot0 + lo, 1,
                hi - lo, d, visit);
      }
    }
  }
};

}  // namespace sweep_detail

/// Runs the sweep over `data` (in level order L..1), addressing elements
/// through explicit per-dimension strides.
///
/// With `estrides = ls.dims.strides()` this sweeps a dense array.  Passing
/// the strides of an *enclosing* field instead sweeps a strided sub-view —
/// `data` then points at the block's origin element inside the field and
/// `idx` values handed to the visitor are element offsets relative to that
/// origin.  Block reconstruction uses this to sweep each block in place in
/// the reader's field; compression sweeps a dense block copy instead.
///
/// Visit order is plane-major: within a level of stride s, each plane of
/// dimension 0 at a multiple of s runs its pass-0 targets (odd multiples
/// only), then its targets of passes 1..rank-1.  Pass-0 targets read only
/// coarser-level points and later passes read only their own plane, so
/// planes are independent and run in parallel (serially when already inside
/// a parallel region, e.g. across blocks).  Rank-1 grids walk their single
/// line in parallel chunks instead.  Every target keeps the (level, slot)
/// pair LevelStructure assigns and reads the same neighbour values as in
/// pass order, so the output does not depend on the visit order.
///
/// Visitor signature:  T visit(unsigned level_index, std::size_t slot,
///                             std::size_t idx, T predicted)
/// where level_index = level-1 (0 = finest).  The returned value is written
/// to data[idx] before any later prediction can read it.  Compression
/// visitors quantize (original − predicted) and return the reconstruction;
/// decompression visitors return predicted + dequantized difference.  Calls
/// for distinct targets may run concurrently.
template <typename T, typename Visitor>
void interpolation_sweep_strided(T* data, const LevelStructure& ls,
                                 InterpKind kind,
                                 const std::array<std::size_t, kMaxRank>& estrides,
                                 Visitor&& visit) {
  using namespace sweep_detail;
  const Dims& dims = ls.dims;
  const unsigned rank = static_cast<unsigned>(dims.rank());
  const unsigned L = ls.num_levels;

  // The anchor (0,...,0) is the only point known before the top level.
  data[0] = visit(L - 1, 0, 0, static_cast<T>(0));

  for (unsigned li = L; li-- > 0;) {
    const std::size_t s = std::size_t{1} << li;
    const auto& passes = ls.passes[li];

    if (rank == 1) {
      if (passes.empty()) continue;
      const auto kr = KernelRanges::of(dims[0], s, kind);
      const std::size_t d = s * estrides[0];
      parallel_chunks(0, kr.count(), 16384,
                      [&](std::size_t k0, std::size_t k1) {
        kr.run(k0, k1, data, li, d, 2 * d, passes[0].slot_offset, d, visit);
      });
      continue;
    }

    KernelRanges kr[kMaxRank];
    for (std::size_t i = 0; i < passes.size(); ++i) {
      kr[i] = KernelRanges::of(dims[passes[i].dim], s, kind);
    }
    // Pass p's targets in one plane, from the first one (idx, slot); m0 is
    // the plane's index along dimension 0 on the pass's grid.  Dimensions
    // 1..rank-2 advance as an odometer; each row along the last dimension
    // runs one kernel, or its kernel ranges when it runs along p.dim.
    auto walk_plane = [&](const DimPass& p, const KernelRanges& kr,
                          std::size_t idx, std::size_t slot, std::size_t m0) {
      const unsigned in = rank - 1;
      const std::size_t d = s * estrides[p.dim];
      std::size_t estep[kMaxRank] = {};
      std::size_t digit[kMaxRank] = {m0};
      std::size_t rows = 1;
      for (unsigned j = 1; j < rank; ++j) {
        estep[j] = (j < p.dim ? s : 2 * s) * estrides[j];
        if (j < in) rows *= p.count[j];
      }
      for (std::size_t row = 0; row < rows; ++row) {
        if (p.dim == in) {
          kr.run(0, kr.count(), data, li, idx, estep[in], slot, d, visit);
        } else {
          run_row(kr.at(digit[p.dim]), data, li, idx, estep[in], slot,
                  p.sstep[in], p.count[in], d, visit);
        }
        for (unsigned j = in - 1; j >= 1; --j) {
          idx += estep[j];
          slot += p.sstep[j];
          if (++digit[j] < p.count[j]) break;
          idx -= p.count[j] * estep[j];
          slot -= p.count[j] * p.sstep[j];
          digit[j] = 0;
        }
      }
    };
    const std::size_t n_planes = (dims[0] - 1) / s + 1;
    const std::size_t plane_targets = ls.level_count[li] / n_planes + 1;
    parallel_for(0, n_planes, [&](std::size_t i0) {
      const std::size_t plane = i0 * s * estrides[0];
      for (std::size_t i = 0; i < passes.size(); ++i) {
        const DimPass& p = passes[i];
        if (p.dim != 0) {
          walk_plane(p, kr[i], plane + s * estrides[p.dim],
                     p.slot_offset + i0 * p.sstep[0], i0);
        } else if (i0 % 2 == 1) {
          walk_plane(p, kr[i], plane, p.slot_offset + i0 / 2, i0 / 2);
        }
      }
    }, /*grain=*/std::max<std::size_t>(1, 16384 / plane_targets));
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
