#include "core/compressor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bitplane/bitplane.hpp"
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
  // The header stores both in one byte each: reject what it cannot record.
  if (opt.prefix_bits > kPlaneCount) {
    throw std::invalid_argument("ipcomp: prefix_bits exceeds the plane count");
  }
  if (opt.interp != InterpKind::kLinear && opt.interp != InterpKind::kCubic) {
    throw std::invalid_argument("ipcomp: unknown interpolation kind");
  }
  const ProgressiveBackend& backend = backend_for(opt.backend);
  const Dims dims = input.dims();
  // Any side >= the largest extent (2 at least) yields one block, so clamp
  // there; block_side 0 (the whole field) is that one-block grid.
  const std::size_t one_block = std::max<std::size_t>(2, dims.max_extent());
  const std::size_t block_side =
      opt.block_side == 0 ? one_block : std::min(opt.block_side, one_block);
  const BlockGrid grid = BlockGrid::analyze(dims, block_side);

  auto [lo, hi] = min_max(input);
  const double eb = resolve_error_bound(opt, lo, hi);

  Header header;
  header.dtype = data_type_of<T>();
  header.dims = dims;
  header.eb = eb;
  header.interp = opt.interp;
  header.prefix_bits = opt.prefix_bits;
  header.data_min = lo;
  header.data_max = hi;
  header.block_side = block_side;
  header.backend = opt.backend;
  header.backend_meta = backend.metadata(header);

  ArchiveBuilder builder;
  builder.set_version(header.write_format());
  builder.set_integrity(opt.integrity);

  // The whole pipeline runs per block, concurrently.  grain=2 keeps a lone
  // block (a field compressed whole) out of a parallel region so its inner
  // loops can still use the pool.
  const auto estrides = dims.strides();
  std::vector<BlockCompressResult> results(grid.n_blocks);
  parallel_for(0, grid.n_blocks, [&](std::size_t b) {
    results[b] = backend.compress_block(
        input.data() + grid.origin_linear(b), nullptr, grid.block_dims(b),
        estrides, eb, opt, static_cast<std::uint32_t>(b));
  }, /*grain=*/2);
  header.block_levels.resize(grid.n_blocks);
  for (std::size_t b = 0; b < grid.n_blocks; ++b) {
    header.block_levels[b] = std::move(results[b].levels);
    for (auto& [id, payload] : results[b].segments) {
      builder.add_segment(id, std::move(payload));
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
