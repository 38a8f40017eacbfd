#include "mgard/mgard.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "coding/codec.hpp"
#include "core/backend.hpp"
#include "core/header.hpp"  // kSegPlane segment kind
#include "interp/sweep.hpp"
#include "io/archive.hpp"
#include "loader/optimizer.hpp"
#include "mgard/predictive_encode.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

namespace {

constexpr int kFixedBits = 30;  // q in [-2^30, 2^30], fits 32-bit negabinary
constexpr unsigned kPrefixBits = 2;

}  // namespace

std::vector<std::vector<double>> mgard_decompose(NdConstView<double> data) {
  const Dims dims = data.dims();
  const LevelStructure ls = LevelStructure::analyze(dims);
  std::vector<std::vector<double>> coeffs(ls.num_levels);
  for (unsigned li = 0; li < ls.num_levels; ++li) {
    coeffs[li].assign(ls.level_count[li], 0.0);
  }
  // Values stay original throughout, so predictions are taken from the
  // original coarse grid: the hierarchical-basis coefficients.
  std::vector<double> work(data.span().begin(), data.span().end());
  const double* original = data.data();
  interpolation_sweep(work.data(), ls, InterpKind::kLinear,
                      [&](unsigned li, std::size_t slot, std::size_t idx,
                          double pred) -> double {
                        coeffs[li][slot] = original[idx] - pred;
                        return original[idx];
                      });
  return coeffs;
}

std::vector<double> mgard_recompose(const Dims& dims,
                                    const std::vector<std::vector<double>>& coeffs) {
  const LevelStructure ls = LevelStructure::analyze(dims);
  if (coeffs.size() != ls.num_levels) {
    throw std::invalid_argument("mgard_recompose: level count mismatch");
  }
  std::vector<double> out(dims.count(), 0.0);
  interpolation_sweep(out.data(), ls, InterpKind::kLinear,
                      [&](unsigned li, std::size_t slot, std::size_t /*idx*/,
                          double pred) -> double {
                        return pred + coeffs[li][slot];
                      });
  return out;
}

namespace {

struct LevelInfo {
  std::uint64_t count = 0;
  double scale = 0.0;       // max |coefficient| at this level
  std::uint32_t n_planes = 0;
  std::vector<std::uint64_t> loss;  // truncation loss table (fixed-point units)
};

struct ParsedHeader {
  Dims dims;
  double eb = 0.0;
  std::vector<LevelInfo> levels;
};

Bytes serialize_header(const ParsedHeader& h) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(h.dims.rank()));
  for (std::size_t i = 0; i < h.dims.rank(); ++i) w.varint(h.dims[i]);
  w.f64(h.eb);
  w.varint(h.levels.size());
  for (const LevelInfo& l : h.levels) {
    w.varint(l.count);
    w.f64(l.scale);
    w.varint(l.n_planes);
    for (auto v : l.loss) w.varint(v);
  }
  return w.take();
}

ParsedHeader parse_header(const Bytes& raw) {
  ByteReader r({raw.data(), raw.size()});
  ParsedHeader h;
  std::size_t rank = r.u8();
  std::size_t extents[kMaxRank];
  for (std::size_t i = 0; i < rank; ++i) extents[i] = r.varint();
  h.dims = Dims::of_rank(rank, extents);
  h.eb = r.f64();
  h.levels.resize(r.varint());
  for (LevelInfo& l : h.levels) {
    l.count = r.varint();
    l.scale = r.f64();
    l.n_planes = static_cast<std::uint32_t>(r.varint());
    l.loss.resize(l.n_planes + 1);
    for (auto& v : l.loss) v = r.varint();
  }
  return h;
}

/// Residual error of the fixed-point representation itself (the "+eb" analog
/// in the retrieval bound): rank · Σ_l scale_l · 2^-kFixedBits.
double base_loss(const ParsedHeader& h) {
  double s = 0.0;
  for (const LevelInfo& l : h.levels) s += l.scale;
  return s * std::ldexp(1.0, -kFixedBits) * static_cast<double>(h.dims.rank());
}

}  // namespace

Bytes PmgardCompressor::compress(NdConstView<double> data, double eb_abs) {
  const Dims dims = data.dims();
  auto coeffs = mgard_decompose(data);
  const unsigned L = static_cast<unsigned>(coeffs.size());

  ParsedHeader h;
  h.dims = dims;
  h.eb = eb_abs;
  h.levels.resize(L);
  ArchiveBuilder builder;

  for (unsigned li = 0; li < L; ++li) {
    LevelInfo& info = h.levels[li];
    info.count = coeffs[li].size();
    double scale = 0.0;
    for (double c : coeffs[li]) scale = std::max(scale, std::abs(c));
    info.scale = scale;
    if (scale == 0.0 || coeffs[li].empty()) {
      info.n_planes = 0;
      info.loss.assign(1, 0);
      continue;
    }
    const double to_fixed = std::ldexp(1.0, kFixedBits) / scale;
    std::vector<std::uint32_t> codes(coeffs[li].size());
    parallel_for(0, codes.size(), [&](std::size_t i) {
      codes[i] = negabinary_encode(
          static_cast<std::int64_t>(std::llround(coeffs[li][i] * to_fixed)));
    }, /*grain=*/1 << 14);

    LevelEncoding enc = encode_level(codes, /*with_loss=*/true, kPrefixBits);
    info.n_planes = enc.n_planes;
    info.loss.resize(enc.n_planes + 1);
    for (unsigned d = 0; d <= enc.n_planes; ++d) {
      info.loss[d] = static_cast<std::uint64_t>(enc.loss[d]);
    }

    std::vector<std::pair<SegmentId, Bytes>> segments;
    append_plane_segments(std::move(enc.planes),
                          static_cast<std::uint16_t>(li + 1), /*block=*/0,
                          segments);
    for (auto& [id, payload] : segments) {
      builder.add_segment(id, std::move(payload));
    }
  }
  builder.set_header(serialize_header(h));
  return builder.finish();
}

Retrieval PmgardCompressor::retrieve(const Bytes& archive, double error_target,
                                     std::uint64_t byte_budget,
                                     bool byte_mode) const {
  MemorySource src{Bytes(archive)};
  ParsedHeader h = parse_header(src.header());
  const unsigned L = static_cast<unsigned>(h.levels.size());
  const double rank_amp = static_cast<double>(h.dims.rank());

  std::vector<LevelPlanInput> inputs(L);
  for (unsigned li = 0; li < L; ++li) {
    const LevelInfo& info = h.levels[li];
    LevelPlanInput& in = inputs[li];
    if (info.n_planes == 0) {
      in.err.assign(1, 0.0);
      continue;
    }
    const double unit = info.scale * std::ldexp(1.0, -kFixedBits);
    in.plane_size.resize(info.n_planes);
    for (unsigned k = 0; k < info.n_planes; ++k) {
      in.plane_size[k] =
          src.segment_size({kSegPlane, static_cast<std::uint16_t>(li + 1), k});
    }
    in.err.resize(info.n_planes + 1);
    for (unsigned d = 0; d <= info.n_planes; ++d) {
      in.err[d] = rank_amp * static_cast<double>(info.loss[d]) * unit;
    }
  }

  const double floor_err = base_loss(h);
  LoadPlan plan;
  if (byte_mode) {
    const std::size_t mandatory = src.stats().bytes_read;
    std::uint64_t remaining = byte_budget > mandatory ? byte_budget - mandatory : 0;
    plan = plan_byte_budget(inputs, remaining);
  } else {
    plan = plan_error_bound(inputs, error_target - floor_err);
  }

  // Fetch planes (MSB first) and rebuild the selected-precision coefficients.
  std::vector<std::vector<double>> coeffs(L);
  for (unsigned li = 0; li < L; ++li) {
    const LevelInfo& info = h.levels[li];
    coeffs[li].assign(info.count, 0.0);
    if (info.n_planes == 0) continue;
    std::vector<std::uint32_t> codes(info.count, 0);
    const unsigned use = plan.planes_to_use[li];
    for (unsigned used = 1; used <= use; ++used) {
      const unsigned k = info.n_planes - used;
      Bytes seg =
          src.read_segment({kSegPlane, static_cast<std::uint16_t>(li + 1), k});
      Bytes enc = codec_decompress({seg.data(), seg.size()},
                                   plane_bytes(info.count));
      Bytes plane = predictive_encode_plane(codes, enc, k, kPrefixBits);
      deposit_plane(codes, plane, k);
    }
    const double from_fixed = info.scale * std::ldexp(1.0, -kFixedBits);
    parallel_for(0, codes.size(), [&](std::size_t i) {
      coeffs[li][i] =
          static_cast<double>(negabinary_decode(codes[i])) * from_fixed;
    }, /*grain=*/1 << 14);
  }

  Retrieval out;
  out.data = mgard_recompose(h.dims, coeffs);
  out.bytes_loaded = src.stats().bytes_read;
  out.passes = 1;
  out.guaranteed_error = floor_err + plan.guaranteed_error;
  return out;
}

std::vector<double> PmgardCompressor::decompress(const Bytes& archive) {
  return retrieve(archive, 0.0, 0, /*byte_mode=*/false).data;
}

Retrieval PmgardCompressor::retrieve_error(const Bytes& archive, double target) {
  return retrieve(archive, target, 0, /*byte_mode=*/false);
}

Retrieval PmgardCompressor::retrieve_bytes(const Bytes& archive,
                                           std::uint64_t budget) {
  return retrieve(archive, 0.0, budget, /*byte_mode=*/true);
}

}  // namespace ipcomp
