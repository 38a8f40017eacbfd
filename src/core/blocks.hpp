// Block decomposition of an N-d field (a field compressed whole is one block).
//
// A BlockGrid partitions a field into axis-aligned cubes of side `block_side`
// (edge blocks are clipped to the field boundary).  Blocks are compressed and
// decoded independently — each runs its own level analysis and interpolation
// sweep over just that block — which is what lets the pipeline parallelize
// across blocks and lets readers serve region-of-interest requests by
// touching only the blocks that intersect the region.
//
// Block ordinals are row-major over the block grid (slowest-varying dimension
// first, like element order), so block numbering — and with it the archive
// segment order — is deterministic and independent of thread count.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "util/dims.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

/// Element offset within the enclosing field of dense line `line` of a block
/// with extents `bd`, where lines run along the (contiguous) last dimension.
/// Shared by every backend's dense-buffer <-> strided-field walks.
inline std::size_t block_line_offset(
    const Dims& bd, const std::array<std::size_t, kMaxRank>& field_strides,
    std::size_t line) {
  std::size_t rem = line;
  std::size_t off = 0;
  for (std::size_t j = bd.rank() - 1; j-- > 0;) {
    off += (rem % bd[j]) * field_strides[j];
    rem /= bd[j];
  }
  return off;
}

/// Scatter/gather between a dense block buffer and the block's strided span
/// of the enclosing field: fn(field_row, dense_offset, row_length) once per
/// row along the last dimension, which is contiguous in both layouts.  Rows
/// run in parallel unless already inside a parallel region.
template <typename FieldT, typename RowFn>
void for_each_block_row(const Dims& bd,
                        const std::array<std::size_t, kMaxRank>& field_strides,
                        FieldT* field_origin, RowFn&& fn) {
  const std::size_t row = bd[bd.rank() - 1];
  const std::size_t lines = bd.count() / row;
  parallel_for(0, lines, [&](std::size_t line) {
    fn(field_origin + block_line_offset(bd, field_strides, line), line * row,
       row);
  }, /*grain=*/std::max<std::size_t>(1, 32768 / row));
}

struct BlockGrid {
  Dims field_dims;
  std::size_t block_side = 0;  // 0 = one block spanning the field (v1 reads)
  std::size_t n_blocks = 1;
  std::array<std::size_t, kMaxRank> grid{};  // blocks per dimension

  /// Derive the grid for a field.  `block_side` 0 yields the single block of
  /// a read-only whole-field archive; 1 is rejected (every element its own
  /// block defeats interpolation entirely).
  static BlockGrid analyze(const Dims& dims, std::size_t block_side) {
    if (block_side == 1) {
      throw std::invalid_argument("ipcomp: block_side must be 0 (off) or >= 2");
    }
    BlockGrid g;
    g.field_dims = dims;
    g.block_side = block_side;
    g.n_blocks = 1;
    for (std::size_t i = 0; i < dims.rank(); ++i) {
      // Overflow-safe ceil-divide: dims[i] + block_side - 1 can wrap for a
      // huge block_side and would silently yield a zero-block grid.
      g.grid[i] = block_side == 0
                      ? 1
                      : dims[i] / block_side + (dims[i] % block_side != 0);
      // The product must not wrap either: forged headers with huge dims and
      // a tiny block side could otherwise alias to a small (even zero) block
      // count and slip past the table-matches-geometry check in parse.
      if (g.grid[i] != 0 && g.n_blocks > SIZE_MAX / g.grid[i]) {
        throw std::runtime_error("ipcomp: block grid too large");
      }
      g.n_blocks *= g.grid[i];
    }
    return g;
  }

  /// Block-grid coordinate of block ordinal `b` (row-major).
  std::array<std::size_t, kMaxRank> block_coord(std::size_t b) const {
    std::array<std::size_t, kMaxRank> c{};
    for (std::size_t i = field_dims.rank(); i-- > 0;) {
      c[i] = b % grid[i];
      b /= grid[i];
    }
    return c;
  }

  /// Element coordinate of the block's origin corner.
  std::array<std::size_t, kMaxRank> block_origin(std::size_t b) const {
    auto c = block_coord(b);
    for (std::size_t i = 0; i < field_dims.rank(); ++i) c[i] *= block_side;
    return c;
  }

  /// Linear element offset of the block's origin within the field.
  std::size_t origin_linear(std::size_t b) const {
    return block_side == 0 ? 0 : field_dims.linear(block_origin(b));
  }

  /// Extents of block `b`, clipped at the field boundary.
  Dims block_dims(std::size_t b) const {
    if (block_side == 0) return field_dims;
    auto origin = block_origin(b);
    std::size_t extents[kMaxRank];
    for (std::size_t i = 0; i < field_dims.rank(); ++i) {
      extents[i] = std::min(block_side, field_dims[i] - origin[i]);
    }
    return Dims::of_rank(field_dims.rank(), extents);
  }

  /// Does block `b` intersect the half-open region [lo, hi)?
  bool intersects(std::size_t b, const std::array<std::size_t, kMaxRank>& lo,
                  const std::array<std::size_t, kMaxRank>& hi) const {
    auto origin = block_origin(b);
    Dims bd = block_dims(b);
    for (std::size_t i = 0; i < field_dims.rank(); ++i) {
      if (origin[i] >= hi[i] || origin[i] + bd[i] <= lo[i]) return false;
    }
    return true;
  }
};

}  // namespace ipcomp
