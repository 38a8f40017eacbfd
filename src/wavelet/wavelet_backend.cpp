#include "wavelet/wavelet_backend.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bitplane/negabinary.hpp"
#include "core/blocks.hpp"
#include "util/ndarray.hpp"
#include "util/parallel.hpp"
#include "wavelet/cdf97.hpp"

namespace ipcomp {

namespace {

constexpr std::uint8_t kMetaVersion = 1;
/// Step scale this backend writes into v3 metadata AND quantizes with; the
/// two must agree or reconstruction dequantizes with a different step than
/// compression measured its corrections and loss tables against.
constexpr double kStepScale = 1.0;
/// Coefficient codes past this magnitude become outliers (matches the
/// interpolation quantizer's headroom so δy sums cannot overflow).
constexpr std::int64_t kCoeffCap = std::int64_t{1} << 30;

/// Subband geometry of a block: W dyadic transform levels partition the
/// coefficients into W detail bands (level index 0 = finest) plus the
/// approximation band (level index W).  Band w's coefficients occupy the
/// origin-anchored box of extents ext(w) minus the box of extents ext(w+1),
/// with ext(0) = dims and per-dim halving ext(w+1) = (ext(w)+1)/2 — exactly
/// the layout cdf97_forward leaves behind.
struct SubbandPlan {
  unsigned w_levels = 0;  // W
  unsigned n_levels = 0;  // W + 1 (details + approximation)
  // ext[w][d]: box extents after w halvings, w in [0, W].
  std::vector<std::array<std::size_t, kMaxRank>> ext;

  static SubbandPlan analyze(const Dims& dims) {
    SubbandPlan p;
    p.w_levels = cdf97_levels(dims);
    p.n_levels = p.w_levels + 1;
    p.ext.resize(p.w_levels + 1);
    for (std::size_t d = 0; d < dims.rank(); ++d) p.ext[0][d] = dims[d];
    for (unsigned w = 1; w <= p.w_levels; ++w) {
      for (std::size_t d = 0; d < dims.rank(); ++d) {
        p.ext[w][d] = (p.ext[w - 1][d] + 1) / 2;
      }
    }
    return p;
  }

  std::size_t box_count(const Dims& dims, unsigned w) const {
    std::size_t n = 1;
    for (std::size_t d = 0; d < dims.rank(); ++d) n *= ext[w][d];
    return n;
  }
};

/// Quantization step for one block: SPERR's heuristic divisor keeps the
/// coefficient error small enough that few spatial corrections are needed;
/// the archived step_scale (v3 metadata) is a forward-compatible knob.
double quant_step(double eb, const Dims& dims, unsigned w_levels,
                  double step_scale) {
  const double div =
      1.0 + 0.5 * static_cast<double>(w_levels) * static_cast<double>(dims.rank());
  return step_scale * eb / div;
}

double parse_step_scale(const Bytes& meta) {
  if (meta.size() != 9) {
    throw std::runtime_error("wavelet: bad backend metadata size");
  }
  if (meta[0] != kMetaVersion) {
    throw std::runtime_error("wavelet: unknown backend metadata version");
  }
  ByteReader r({meta.data(), meta.size()});
  r.u8();
  const double scale = r.f64();
  if (!std::isfinite(scale) || scale <= 0.0 || scale > 1e9) {
    throw std::runtime_error("wavelet: bad step scale in backend metadata");
  }
  return scale;
}

/// Visit every slot of subband level `li` in deterministic order:
/// fn(slot, dense_index), slots counted row-major over the level's box with
/// the next-finer approximation box skipped.
template <typename Fn>
void for_each_level_slot(const Dims& dims, const SubbandPlan& plan, unsigned li,
                         Fn&& fn) {
  const std::size_t rank = dims.rank();
  const auto strides = dims.strides();
  const auto& outer = plan.ext[li];
  const bool has_inner = li < plan.w_levels;
  const auto& inner = plan.ext[std::min<unsigned>(li + 1, plan.w_levels)];

  std::array<std::size_t, kMaxRank> coord{};
  std::size_t slot = 0;
  std::size_t lin = 0;
  for (;;) {
    bool inside = has_inner;
    if (has_inner) {
      for (std::size_t d = 0; d < rank; ++d) {
        if (coord[d] >= inner[d]) {
          inside = false;
          break;
        }
      }
    }
    if (!inside) fn(slot++, lin);
    // Odometer increment (row-major: last dimension fastest).
    std::size_t d = rank;
    for (;;) {
      if (d == 0) return;
      --d;
      ++coord[d];
      lin += strides[d];
      if (coord[d] < outer[d]) break;
      lin -= coord[d] * strides[d];
      coord[d] = 0;
    }
  }
}

/// Parse + apply the auxiliary segment's spatial corrections: exact original
/// values overwriting points of the block, in dense block indexing.
template <typename T>
void apply_corrections(const Bytes& aux, const Dims& bd,
                       const std::array<std::size_t, kMaxRank>& field_strides,
                       T* field_origin) {
  if (aux.empty()) throw std::runtime_error("wavelet: missing correction segment");
  ByteReader r({aux.data(), aux.size()});
  const std::size_t n = bd.count();
  std::size_t count = r.varint();
  if (count > n) throw std::runtime_error("wavelet: forged correction count");
  const std::size_t rank = bd.rank();
  std::size_t idx = 0;
  for (std::size_t i = 0; i < count; ++i) {
    idx += r.varint();
    if (idx >= n) throw std::runtime_error("wavelet: correction index out of range");
    const double value = r.f64();
    // Dense block index -> strided field offset.
    std::size_t rem = idx;
    std::size_t off = 0;
    for (std::size_t d = rank; d-- > 0;) {
      off += (rem % bd[d]) * field_strides[d];
      rem /= bd[d];
    }
    field_origin[off] = static_cast<T>(value);
  }
}

/// Reconstruct the dense block from dequantized coefficients.  Shared by the
/// reader path and the compression self-check so both are bitwise identical.
std::vector<double> inverse_block(std::vector<double> coeffs, const Dims& bd,
                                  unsigned w_levels) {
  cdf97_inverse({coeffs.data(), bd}, w_levels);
  return coeffs;
}

/// Dequantized coefficient field from a reader-side BlockCodes.
std::vector<double> dequantize_coeffs(const BlockCodes& bc,
                                      const SubbandPlan& plan, double step) {
  std::vector<double> coeffs(bc.dims.count(), 0.0);
  for (unsigned li = 0; li < plan.n_levels; ++li) {
    for_each_level_slot(bc.dims, plan, li, [&](std::size_t slot, std::size_t idx) {
      double raw;
      if (block_outlier(bc, li, slot, raw)) {
        coeffs[idx] = raw;
      } else {
        coeffs[idx] =
            static_cast<double>(negabinary_decode(bc.codes[li][slot])) * step;
      }
    });
  }
  return coeffs;
}

/// Exact per-level truncation-loss table, in (2·eb) units: loss[d] bounds the
/// L∞ field error of dropping the level's d lowest stored planes.  Built by
/// linearity: the dropped-bit field's inverse transform is accumulated plane
/// by plane and its max |value| measured — no operator-norm slack.
std::vector<std::uint64_t> measure_loss_table(
    const std::vector<std::uint32_t>& codes, unsigned n_planes, const Dims& bd,
    const SubbandPlan& plan, unsigned li, double step, double eb) {
  std::vector<std::uint64_t> loss(n_planes + 1, 0);
  const std::size_t n = bd.count();
  std::vector<double> err(n, 0.0);   // inverse of the dropped bits so far
  std::vector<double> bits(n, 0.0);  // one plane's coefficient contribution
  double worst = 0.0;
  for (unsigned d = 1; d <= n_planes; ++d) {
    const unsigned k = d - 1;
    const double weight =
        ((k & 1u) == 0 ? 1.0 : -1.0) * static_cast<double>(std::uint64_t{1} << k) *
        step;
    bool any = false;
    std::fill(bits.begin(), bits.end(), 0.0);
    for_each_level_slot(bd, plan, li, [&](std::size_t slot, std::size_t idx) {
      if ((codes[slot] >> k) & 1u) {
        bits[idx] = weight;
        any = true;
      }
    });
    if (any) {
      cdf97_inverse({bits.data(), bd}, plan.w_levels);
      for (std::size_t i = 0; i < n; ++i) {
        err[i] += bits[i];
        worst = std::max(worst, std::abs(err[i]));
      }
    }
    const double units = worst / (2.0 * eb);
    loss[d] = units >= 4.0e18 ? std::uint64_t{4000000000000000000u}
                              : static_cast<std::uint64_t>(std::ceil(units));
  }
  return loss;
}

template <typename T>
BlockCompressResult compress_impl(const T* original, const Dims& bd,
                                  const std::array<std::size_t, kMaxRank>& estrides,
                                  double eb, const Options& opt,
                                  std::uint32_t block) {
  const SubbandPlan plan = SubbandPlan::analyze(bd);
  const double step = quant_step(eb, bd, plan.w_levels, kStepScale);
  const std::size_t n = bd.count();

  // Gather the strided block into a dense double buffer; non-finite values
  // would poison the transform, so they enter as 0 and leave as corrections.
  std::vector<double> buf(n);
  for_each_block_row(bd, estrides, original, [&](const T* src, std::size_t dst0,
                                                 std::size_t row) {
    for (std::size_t i = 0; i < row; ++i) {
      const double v = static_cast<double>(src[i]);
      buf[dst0 + i] = std::isfinite(v) ? v : 0.0;
    }
  });
  cdf97_forward({buf.data(), bd}, plan.w_levels);

  const unsigned L = plan.n_levels;
  std::vector<LevelScratch> levels(L);
  std::vector<double> deq(n);  // dequantized coefficients, for the self-check
  for (unsigned li = 0; li < L; ++li) {
    LevelScratch& scratch = levels[li];
    scratch.codes.assign(plan.box_count(bd, li) -
                             (li < plan.w_levels ? plan.box_count(bd, li + 1) : 0),
                         0);
    for_each_level_slot(bd, plan, li, [&](std::size_t slot, std::size_t idx) {
      const double c = buf[idx];
      const double scaled = c / step;
      if (!std::isfinite(scaled) ||
          scaled >= static_cast<double>(kCoeffCap) ||
          scaled <= -static_cast<double>(kCoeffCap)) {
        scratch.outliers.emplace_back(slot, c);
        deq[idx] = c;
        return;
      }
      const std::int64_t code = std::llround(scaled);
      scratch.codes[slot] = negabinary_encode(code);
      deq[idx] = static_cast<double>(code) * step;
    });
  }

  // Self-check: decode through the exact reader reconstruction path and
  // record an exact spatial correction for every point whose error still
  // exceeds the bound (including sanitized non-finite points).  This is what
  // makes the full-fidelity L∞ guarantee unconditional.
  std::vector<double> recon = inverse_block(std::move(deq), bd, plan.w_levels);
  ByteWriter corrections;
  {
    // Serial row walk in dense order (the delta-varint stream needs strictly
    // increasing indices regardless of thread count).
    ByteWriter body;
    std::size_t n_corr = 0;
    std::size_t prev = 0;
    const std::size_t row = bd[bd.rank() - 1];
    const std::size_t lines = n / row;
    for (std::size_t line = 0; line < lines; ++line) {
      const T* src = original + block_line_offset(bd, estrides, line);
      const std::size_t dst0 = line * row;
      for (std::size_t i = 0; i < row; ++i) {
        const double o = static_cast<double>(src[i]);
        const double r = static_cast<double>(static_cast<T>(recon[dst0 + i]));
        if (!(std::abs(o - r) <= eb)) {
          body.varint(dst0 + i - prev);
          body.f64(o);
          prev = dst0 + i;
          ++n_corr;
        }
      }
    }
    corrections.varint(n_corr);
    corrections.bytes(body.take());
  }

  BlockCompressResult out;
  out.levels.resize(L);
  out.segments.emplace_back(SegmentId{kSegAux, 0, 0, block}, corrections.take());

  for (unsigned li = 0; li < L; ++li) {
    LevelScratch& scratch = levels[li];
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

    // One fused sweep yields plane count + predictive residual planes; the
    // loss table is NOT the negabinary one — it stays the exact measured
    // table (inverse transforms of the dropped bits), so with_loss is off.
    LevelEncoding enc =
        encode_level(scratch.codes, /*with_loss=*/false, opt.prefix_bits);
    lh.n_planes = enc.n_planes;
    lh.loss =
        measure_loss_table(scratch.codes, enc.n_planes, bd, plan, li, step, eb);

    out.segments.emplace_back(
        SegmentId{kSegBase, level_tag, 0, block},
        serialize_base_segment(scratch, true, opt.codec));
    append_plane_segments(std::move(enc.planes), level_tag, block, opt.codec,
                          out.segments);
  }
  return out;
}

template <typename T>
void reconstruct_impl(const Header& h, const BlockCodes& bc, T* field) {
  const SubbandPlan plan = SubbandPlan::analyze(bc.dims);
  const double scale = parse_step_scale(h.backend_meta);
  const double step = quant_step(h.eb, bc.dims, plan.w_levels, scale);
  std::vector<double> recon =
      inverse_block(dequantize_coeffs(bc, plan, step), bc.dims, plan.w_levels);
  const auto field_strides = h.dims.strides();
  T* origin = field + bc.origin;
  for_each_block_row(bc.dims, field_strides, origin,
                     [&](T* dst, std::size_t src0, std::size_t row) {
    for (std::size_t i = 0; i < row; ++i) {
      dst[i] = static_cast<T>(recon[src0 + i]);
    }
  });
  apply_corrections(bc.aux, bc.dims, field_strides, origin);
}

}  // namespace

std::vector<std::uint64_t> WaveletBackend::level_counts(
    const Dims& block_dims) const {
  const SubbandPlan plan = SubbandPlan::analyze(block_dims);
  std::vector<std::uint64_t> counts(plan.n_levels);
  for (unsigned li = 0; li < plan.n_levels; ++li) {
    counts[li] = plan.box_count(block_dims, li) -
                 (li < plan.w_levels ? plan.box_count(block_dims, li + 1) : 0);
  }
  return counts;
}

Bytes WaveletBackend::metadata(const Header&) const {
  ByteWriter w;
  w.u8(kMetaVersion);
  w.f64(kStepScale);
  return w.take();
}

void WaveletBackend::validate_metadata(const Header& h) const {
  parse_step_scale(h.backend_meta);
}

double WaveletBackend::amplification(const Header&, ErrorModel, unsigned) const {
  // Loss tables are measured in the value domain at compression time (exact
  // inverse transforms of the dropped bits), so no further amplification.
  return 1.0;
}

BlockCompressResult WaveletBackend::compress_block(
    const float* original, float* /*work*/, const Dims& block_dims,
    const std::array<std::size_t, kMaxRank>& estrides, double eb,
    const Options& opt, std::uint32_t block) const {
  return compress_impl(original, block_dims, estrides, eb, opt, block);
}

BlockCompressResult WaveletBackend::compress_block(
    const double* original, double* /*work*/, const Dims& block_dims,
    const std::array<std::size_t, kMaxRank>& estrides, double eb,
    const Options& opt, std::uint32_t block) const {
  return compress_impl(original, block_dims, estrides, eb, opt, block);
}

void WaveletBackend::reconstruct(const Header& h, const BlockCodes& bc,
                                 float* field) const {
  reconstruct_impl(h, bc, field);
}

void WaveletBackend::reconstruct(const Header& h, const BlockCodes& bc,
                                 double* field) const {
  reconstruct_impl(h, bc, field);
}

}  // namespace ipcomp
