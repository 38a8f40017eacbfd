// Microbenchmark for the word-parallel bitplane engine: the pre-refactor
// scalar loops (kept here as the `ref` rows) against the transpose-engine
// tiers on a 256^3 field's worth of negabinary codes.
//
//   bench_bitplane [--side N] [--repeat R] [--dense]
//
// Default codes mimic interpolation residuals (small magnitudes, low planes
// populated — the common case); --dense uses full-width random codes (worst
// case for the sparse-friendly scalar paths).  Reported rate is code bytes
// (4 per value) through the stage, median of R runs.  The PR acceptance
// floor is >=3x for extract_all_planes and the multi-plane deposit, SIMD
// tier vs the ref scalar path.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "bitplane/predictive.hpp"
#include "bitplane/transpose.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace ipcomp;

// ---- pre-refactor reference implementations (PR 4 scalar loops) ----------

std::array<PlaneBits, kPlaneCount> extract_all_planes_ref(
    std::span<const std::uint32_t> values) {
  std::array<PlaneBits, kPlaneCount> planes;
  const std::size_t nbytes = plane_bytes(values.size());
  for (auto& p : planes) p.assign(nbytes, 0);
  for (std::size_t byte = 0; byte < nbytes; ++byte) {
    const std::size_t base = byte * 8;
    const std::size_t lim = std::min<std::size_t>(8, values.size() - base);
    std::array<std::uint8_t, kPlaneCount> acc{};
    for (std::size_t j = 0; j < lim; ++j) {
      std::uint32_t v = values[base + j];
      while (v) {
        unsigned k = static_cast<unsigned>(__builtin_ctz(v));
        acc[k] |= static_cast<std::uint8_t>(1u << j);
        v &= v - 1;
      }
    }
    for (unsigned k = 0; k < kPlaneCount; ++k) {
      if (acc[k]) planes[k][byte] = acc[k];
    }
  }
  return planes;
}

void deposit_plane_ref(std::span<std::uint32_t> values,
                       std::span<const std::uint8_t> plane, unsigned k) {
  for (std::size_t byte = 0; byte < plane.size(); ++byte) {
    std::uint8_t bits = plane[byte];
    if (!bits) continue;
    const std::size_t base = byte * 8;
    while (bits) {
      unsigned j = static_cast<unsigned>(__builtin_ctz(bits));
      values[base + j] |= (std::uint32_t{1} << k);
      bits = static_cast<std::uint8_t>(bits & (bits - 1));
    }
  }
}

/// Per-set-bit loss walk (the pre-fusion truncation_loss_table): each
/// value's partial negabinary sum is range-maxed into the depths it covers.
std::array<std::int64_t, kPlaneCount + 1> truncation_loss_table_ref(
    std::span<const std::uint32_t> values) {
  std::array<std::int64_t, kPlaneCount + 1> table{};
  for (std::uint32_t v : values) {
    std::int64_t acc = 0;
    std::uint32_t bits = v;
    while (bits) {
      const unsigned k = static_cast<unsigned>(__builtin_ctz(bits));
      bits &= bits - 1;
      const std::int64_t w = std::int64_t{1} << k;
      acc += (k & 1u) ? -w : w;
      const std::int64_t mag = acc < 0 ? -acc : acc;
      const unsigned next =
          bits ? static_cast<unsigned>(__builtin_ctz(bits)) : kPlaneCount;
      for (unsigned d = k + 1; d <= next; ++d) {
        table[d] = std::max(table[d], mag);
      }
    }
  }
  return table;
}

unsigned plane_count_ref(std::span<const std::uint32_t> values) {
  std::uint32_t all = 0;
  for (std::uint32_t v : values) all |= v;
  unsigned n = 0;
  while (all) {
    ++n;
    all >>= 1;
  }
  return n;
}

// ---- harness -------------------------------------------------------------

template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t(static_cast<std::size_t>(reps));
  for (auto& s : t) {
    Timer timer;
    fn();
    s = timer.seconds();
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

double gbps(std::size_t bytes, double seconds) {
  return seconds <= 0.0
             ? 0.0
             : static_cast<double>(bytes) / 1.0e9 / seconds;
}

std::vector<std::uint32_t> make_codes(std::size_t n, bool dense) {
  Rng rng(42);
  std::vector<std::uint32_t> codes(n);
  if (dense) {
    for (auto& c : codes) c = static_cast<std::uint32_t>(rng.next_u64());
    return codes;
  }
  // Interp-residual profile: mostly tiny quantization deltas, a thin tail of
  // large ones — geometric over magnitude classes.
  for (auto& c : codes) {
    const unsigned cls = static_cast<unsigned>(__builtin_ctzll(rng.next_u64() | (1ull << 12)));
    const std::uint64_t span = 1ull << (2 * cls + 2);
    const std::int64_t q =
        static_cast<std::int64_t>(rng.uniform_u64(span)) -
        static_cast<std::int64_t>(span / 2);
    c = negabinary_encode(q);
  }
  return codes;
}

struct Row {
  const char* stage;
  const char* tier;
  double seconds;
  double rate_gbps;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t side = 256;
  int reps = 5;
  bool dense = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--side") == 0 && i + 1 < argc) {
      side = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      reps = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--dense") == 0) {
      dense = true;
    } else {
      std::fprintf(stderr, "usage: %s [--side N] [--repeat R] [--dense]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  const std::size_t n = side * side * side;
  const std::size_t bytes = n * 4;
  const auto codes = make_codes(n, dense);
  const unsigned n_planes = plane_count_ref(codes);

  std::printf("=== bitplane engine: %zu^3 codes (%s profile, %u planes), "
              "median of %d ===\n",
              side, dense ? "dense" : "interp-residual", n_planes, reps);
  std::printf("detected %s, dispatch %s (IPCOMP_SIMD to override)\n\n",
              to_string(detected_simd_level()), to_string(simd_level()));

  const SimdLevel tiers[] = {SimdLevel::kScalar, SimdLevel::kSse2,
                             SimdLevel::kAvx2};
  std::vector<Row> rows;

  // -- extract_all_planes --------------------------------------------------
  double ref_extract = median_seconds(reps, [&] {
    auto planes = extract_all_planes_ref(codes);
    if (planes[0].empty() && n) std::printf("unreachable\n");
  });
  rows.push_back({"extract_all", "ref", ref_extract, gbps(bytes, ref_extract)});
  for (SimdLevel t : tiers) {
    if (t > detected_simd_level()) continue;
    const auto& ops = transpose_ops(t);
    double s = median_seconds(reps, [&] {
      auto planes = extract_all_planes(ops, codes);
      if (planes[0].empty() && n) std::printf("unreachable\n");
    });
    rows.push_back({"extract_all", to_string(t), s, gbps(bytes, s)});
  }

  // -- multi-plane deposit (rebuild all planes into zeroed codes) ----------
  auto planes = extract_all_planes(codes);
  std::vector<PlaneSpan> spans;
  for (unsigned k = 0; k < n_planes; ++k) {
    spans.push_back({k, {planes[k].data(), planes[k].size()}});
  }
  std::vector<std::uint32_t> rebuilt(n);
  double ref_deposit = median_seconds(reps, [&] {
    std::fill(rebuilt.begin(), rebuilt.end(), 0u);
    for (unsigned k = 0; k < n_planes; ++k) {
      deposit_plane_ref(rebuilt, planes[k], k);
    }
  });
  rows.push_back({"deposit_multi", "ref", ref_deposit, gbps(bytes, ref_deposit)});
  for (SimdLevel t : tiers) {
    if (t > detected_simd_level()) continue;
    const auto& ops = transpose_ops(t);
    double s = median_seconds(reps, [&] {
      std::fill(rebuilt.begin(), rebuilt.end(), 0u);
      deposit_planes(ops, rebuilt, spans);
    });
    rows.push_back({"deposit_multi", to_string(t), s, gbps(bytes, s)});
  }
  if (rebuilt != codes) {
    std::fprintf(stderr, "FATAL: deposit does not rebuild the codes\n");
    return 1;
  }

  // -- fused encode (count + loss + residual planes) vs separate sweeps ----
  double ref_encode = median_seconds(reps, [&] {
    const unsigned np = plane_count_ref(codes);
    auto loss = truncation_loss_table_ref(codes);
    auto ps = extract_all_planes_ref(codes);
    for (unsigned k = 0; k < np; ++k) {
      ps[k] = predictive_encode_plane(codes, ps[k], k, kDefaultPrefixBits);
    }
    if (np && loss[1] < 0 && ps[0].empty()) std::printf("unreachable\n");
  });
  rows.push_back({"encode_fused", "ref", ref_encode, gbps(bytes, ref_encode)});
  for (SimdLevel t : tiers) {
    if (t > detected_simd_level()) continue;
    const auto& ops = transpose_ops(t);
    double s = median_seconds(reps, [&] {
      LevelEncoding enc =
          encode_level(ops, codes, /*with_loss=*/true, kDefaultPrefixBits);
      if (enc.n_planes != n_planes) std::printf("unreachable\n");
    });
    rows.push_back({"encode_fused", to_string(t), s, gbps(bytes, s)});
  }

  if (encode_level(codes, /*with_loss=*/true).loss !=
      truncation_loss_table_ref(codes)) {
    std::fprintf(stderr,
                 "FATAL: fused loss table differs from the reference\n");
    return 1;
  }

  std::printf("%-14s %-8s %10s %10s %9s\n", "stage", "tier", "seconds", "GB/s",
              "speedup");
  double ref_s = 0.0;
  for (const Row& r : rows) {
    if (std::strcmp(r.tier, "ref") == 0) ref_s = r.seconds;
    std::printf("%-14s %-8s %10.4f %10.2f %8.2fx\n", r.stage, r.tier, r.seconds,
                r.rate_gbps, ref_s / r.seconds);
  }
  std::printf("\n(acceptance floor: >=3x for extract_all and deposit_multi, "
              "SIMD tier vs ref)\n");
  return 0;
}
