#include "core/interp_backend.hpp"

#include <algorithm>
#include <memory>

#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "core/blocks.hpp"
#include "interp/sweep.hpp"
#include "quant/quantizer.hpp"
#include "util/sync.hpp"

namespace ipcomp {

namespace {

/// Full per-block pipeline: interpolation sweep (in-loop quantization) →
/// negabinary codes + outliers → bitplane split → predictive XOR → codec.
/// `original` points at the block's origin element inside the enclosing field
/// addressed by `estrides`.  The block is copied into a dense block-local
/// buffer that the sweep overwrites with the in-loop reconstruction, so the
/// field is only read and the sweep's working set is the block itself.
template <typename T>
BlockCompressResult compress_impl(const T* original, const Dims& block_dims,
                                  const std::array<std::size_t, kMaxRank>& estrides,
                                  double eb, const Options& opt,
                                  std::uint32_t block) {
  const LevelStructure ls = LevelStructure::analyze(block_dims);
  const unsigned L = ls.num_levels;
  const LinearQuantizer quant(eb);

  std::vector<LevelScratch> levels(L);
  for (unsigned li = 0; li < L; ++li) {
    levels[li].codes.assign(ls.level_count[li], 0);
  }

  // Every element is filled by the row copy, so skip value-initialization.
  const auto buf = std::make_unique_for_overwrite<T[]>(block_dims.count());
  T* const data = buf.get();
  for_each_block_row(block_dims, estrides, original,
                     [&](const T* src, std::size_t dst0, std::size_t row) {
    std::copy_n(src, row, data + dst0);
  });

  // Outlier lists are per block; the mutex only matters for a lone block,
  // whose sweep's line loop is the parallel one.  Among many blocks the
  // nested-parallelism guard keeps this sweep serial and the lock free.
  Mutex outlier_mutex;

  // In-loop quantization: every element is visited exactly once, so data[idx]
  // still holds the original value when its target is visited; the returned
  // reconstruction replaces it, and later predictions see exactly what
  // decompression will see.
  interpolation_sweep(
      data, ls, opt.interp,
      [&](unsigned li, std::size_t slot, std::size_t idx, T pred) -> T {
        const T orig = data[idx];
        std::int64_t code;
        T recon;
        if (quant.quantize(orig, pred, code, recon)) {
          levels[li].codes[slot] = negabinary_encode(code);
          return recon;
        }
        {
          LockGuard lock(outlier_mutex);
          levels[li].outliers.emplace_back(slot, static_cast<double>(orig));
        }
        return orig;
      });

  BlockCompressResult out;
  out.levels.resize(L);

  for (unsigned li = 0; li < L; ++li) {
    LevelScratch& scratch = levels[li];
    // Slots are unique per level, so sorting makes the outlier order (and
    // with it the serialized bytes) independent of sweep scheduling.
    std::sort(scratch.outliers.begin(), scratch.outliers.end());
    LevelHeader& lh = out.levels[li];
    lh.count = scratch.codes.size();
    lh.outlier_count = scratch.outliers.size();
    lh.progressive = scratch.codes.size() >= opt.progressive_threshold;

    const std::uint16_t level_tag = static_cast<std::uint16_t>(li + 1);
    if (!lh.progressive) {
      lh.n_planes = 0;
      lh.loss.assign(1, 0);
      out.segments.emplace_back(
          SegmentId{kSegBase, level_tag, 0, block},
          serialize_base_segment(scratch, false, opt.codec));
      continue;
    }

    // Fused pass: plane count, exact truncation-loss table and the
    // predictive residual planes all come out of one tiled sweep.
    LevelEncoding enc =
        encode_level(scratch.codes, /*with_loss=*/true, opt.prefix_bits);
    lh.n_planes = enc.n_planes;
    lh.loss.resize(enc.n_planes + 1);
    for (unsigned d = 0; d <= enc.n_planes; ++d) {
      lh.loss[d] = static_cast<std::uint64_t>(enc.loss[d]);
    }

    out.segments.emplace_back(
        SegmentId{kSegBase, level_tag, 0, block},
        serialize_base_segment(scratch, true, opt.codec));

    append_plane_segments(std::move(enc.planes), level_tag, block, opt.codec,
                          out.segments);
  }
  return out;
}

/// Reconstruction: a full sweep from the (partial) codes, outliers restored
/// exactly (Algorithm 1).  It writes every point before any prediction reads
/// it, so refinements rerun it and match a one-shot read bit for bit.
template <typename T>
void reconstruct_impl(const Header& h, const BlockCodes& bc, T* field) {
  const LevelStructure ls = LevelStructure::analyze(bc.dims);
  const LinearQuantizer quant(h.eb);
  interpolation_sweep_strided(
      field + bc.origin, ls, h.interp, h.dims.strides(),
      [&](unsigned li, std::size_t slot, std::size_t /*idx*/, T pred) -> T {
        double raw;
        if (block_outlier(bc, li, slot, raw)) return static_cast<T>(raw);
        return quant.dequantize(pred, negabinary_decode(bc.codes[li][slot]));
      });
}

}  // namespace

std::vector<std::uint64_t> InterpBackend::level_counts(
    const Dims& block_dims) const {
  const LevelStructure ls = LevelStructure::analyze(block_dims);
  return {ls.level_count.begin(), ls.level_count.end()};
}

double InterpBackend::amplification(const Header& h, ErrorModel model,
                                    unsigned l) const {
  return level_amplification(model, h.interp,
                             static_cast<unsigned>(h.dims.rank()), l);
}

BlockCompressResult InterpBackend::compress_block(
    const float* original, float* /*work*/, const Dims& block_dims,
    const std::array<std::size_t, kMaxRank>& estrides, double eb,
    const Options& opt, std::uint32_t block) const {
  return compress_impl(original, block_dims, estrides, eb, opt, block);
}

BlockCompressResult InterpBackend::compress_block(
    const double* original, double* /*work*/, const Dims& block_dims,
    const std::array<std::size_t, kMaxRank>& estrides, double eb,
    const Options& opt, std::uint32_t block) const {
  return compress_impl(original, block_dims, estrides, eb, opt, block);
}

void InterpBackend::reconstruct(const Header& h, const BlockCodes& bc,
                                float* field) const {
  reconstruct_impl(h, bc, field);
}

void InterpBackend::reconstruct(const Header& h, const BlockCodes& bc,
                                double* field) const {
  reconstruct_impl(h, bc, field);
}

}  // namespace ipcomp
