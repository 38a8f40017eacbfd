#include "core/compressor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/backend.hpp"
#include "core/blocks.hpp"
#include "core/header.hpp"
#include "io/archive.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

namespace {

/// Values per bound-scan chunk: enough to amortize a fork, and fixed, so the
/// chunk layout (and with it the merge order) never depends on thread count.
constexpr std::size_t kScanChunk = std::size_t{1} << 16;

/// Finite min/max of the field (0, 0 when nothing is finite).  Chunks are
/// scanned in parallel and merged in chunk order with the same std::min /
/// std::max calls, so ties (−0 vs +0) resolve exactly as one serial pass.
template <typename T>
std::pair<double, double> min_max(NdConstView<T> v) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const T* const x = v.data();
  const std::size_t n = v.count();
  std::vector<std::pair<double, double>> part((n + kScanChunk - 1) / kScanChunk);
  parallel_chunks(0, n, kScanChunk, [&](std::size_t b, std::size_t e) {
    double lo = kInf;
    double hi = -kInf;
    for (std::size_t i = b; i < e; ++i) {
      const double d = static_cast<double>(x[i]);
      if (std::isfinite(d)) {
        lo = std::min(lo, d);
        hi = std::max(hi, d);
      }
    }
    part[b / kScanChunk] = {lo, hi};
  });
  double lo = kInf;
  double hi = -kInf;
  for (const auto& [plo, phi] : part) {
    lo = std::min(lo, plo);
    hi = std::max(hi, phi);
  }
  if (!std::isfinite(lo)) {
    lo = 0.0;
    hi = 0.0;
  }
  return {lo, hi};
}

}  // namespace

double resolve_error_bound(const Options& opt, double data_min, double data_max) {
  // Negated comparison so NaN bounds are rejected too, not quantized with.
  if (!(opt.error_bound > 0.0) || !std::isfinite(opt.error_bound)) {
    throw std::invalid_argument("ipcomp: error bound must be positive");
  }
  if (!opt.relative) return opt.error_bound;
  const double range = data_max - data_min;
  double eb;
  if (std::isfinite(range)) {
    // A constant field has no range; any positive bound works there.
    eb = opt.error_bound * (range <= 0.0 ? 1.0 : range);
  } else {
    // max − min overflowed (e.g. a ±1.5e308 field): scale before subtracting.
    eb = opt.error_bound * data_max - opt.error_bound * data_min;
  }
  if (!std::isfinite(eb)) {
    throw std::invalid_argument(
        "ipcomp: relative error bound is not finite for this value range");
  }
  return eb;
}

template <typename T>
double resolve_error_bound(NdConstView<T> input, const Options& opt) {
  auto [lo, hi] = min_max(input);
  return resolve_error_bound(opt, lo, hi);
}

template <typename T>
Bytes compress(NdConstView<T> input, const Options& opt) {
  const ProgressiveBackend& backend = backend_for(opt.backend);
  const Dims dims = input.dims();
  // Any side >= the largest extent yields one block per dimension, so clamp
  // there: the header stores the side as u32, and grid and header must
  // derive from the same value or the archive becomes unreadable.
  std::size_t block_side = opt.block_side;
  if (block_side != 0) {
    block_side =
        std::min(block_side, std::max<std::size_t>(2, dims.max_extent()));
    if (block_side > 0xFFFFFFFFu) {
      throw std::invalid_argument("ipcomp: block side too large");
    }
  }
  const BlockGrid grid = BlockGrid::analyze(dims, block_side);

  auto [lo, hi] = min_max(input);
  const double eb = resolve_error_bound(opt, lo, hi);

  const T* original = input.data();
  const auto estrides = dims.strides();

  Header header;
  header.dtype = data_type_of<T>();
  header.dims = dims;
  header.eb = eb;
  header.interp = opt.interp;
  header.prefix_bits = opt.prefix_bits;
  header.data_min = lo;
  header.data_max = hi;
  header.block_side = static_cast<std::uint32_t>(block_side);
  header.backend = opt.backend;
  header.backend_meta = backend.metadata(header);

  // The interpolation backend keeps writing the original self-describing
  // v1/v2 containers; any other backend needs the v3 header (backend id +
  // metadata) and therefore the v3 container.
  ArchiveBuilder builder;
  if (opt.backend == BackendId::kInterp) {
    builder.set_version(block_side == 0 ? kArchiveV1 : kArchiveV2);
  } else {
    builder.set_version(kArchiveV3);
  }
  builder.set_integrity(opt.integrity);

  if (block_side == 0) {
    // Legacy whole-field mode: one block spanning the field; the backend's
    // inner loops parallelize.
    BlockCompressResult res =
        backend.compress_block(original, nullptr, dims, estrides, eb, opt, 0);
    header.levels = std::move(res.levels);
    for (auto& [id, payload] : res.segments) {
      builder.add_segment(id, std::move(payload));
    }
  } else {
    // Block mode: the whole pipeline runs per block, concurrently.  grain=2
    // keeps a lone block out of a parallel region so its inner loops can
    // still use the pool.
    std::vector<BlockCompressResult> results(grid.n_blocks);
    parallel_for(0, grid.n_blocks, [&](std::size_t b) {
      const std::size_t org = grid.origin_linear(b);
      results[b] = backend.compress_block(original + org, nullptr,
                                          grid.block_dims(b), estrides, eb,
                                          opt, static_cast<std::uint32_t>(b));
    }, /*grain=*/2);
    header.block_levels.resize(grid.n_blocks);
    for (std::size_t b = 0; b < grid.n_blocks; ++b) {
      header.block_levels[b] = std::move(results[b].levels);
      for (auto& [id, payload] : results[b].segments) {
        builder.add_segment(id, std::move(payload));
      }
    }
  }

  builder.set_header(header.serialize());
  return builder.finish();
}

template Bytes compress<float>(NdConstView<float>, const Options&);
template Bytes compress<double>(NdConstView<double>, const Options&);
template double resolve_error_bound<float>(NdConstView<float>, const Options&);
template double resolve_error_bound<double>(NdConstView<double>, const Options&);

}  // namespace ipcomp
