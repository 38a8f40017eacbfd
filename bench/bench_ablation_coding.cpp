// Ablation A (design choices of paper §4.4): integer representation for
// bitplane coding — negabinary vs two's complement vs sign-magnitude — and
// the predictive-coder prefix width.
//
// Measures (a) the total compressed size of all plane segments under each
// representation, (b) the truncation uncertainty at increasing dropped-plane
// depths, (c) the end-to-end archive size for prefix widths 0..3, (d) the
// codec-orchestration policy: per-method routing census, plane bytes and
// encode throughput of the entropy-probed router vs the legacy strategies.
#include <cmath>

#include "util/timer.hpp"

#include "bench_common.hpp"
#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "bitplane/predictive.hpp"
#include "coding/codec.hpp"
#include "core/compressor.hpp"
#include "interp/sweep.hpp"
#include "quant/quantizer.hpp"

namespace {

using namespace ipcomp;

std::vector<std::int64_t> quantize_codes(const NdArray<double>& data, double eb) {
  const LevelStructure ls = LevelStructure::analyze(data.dims());
  std::vector<std::int64_t> out;
  out.reserve(data.count());
  const LinearQuantizer quant(eb);
  std::vector<double> xhat(data.vector());
  const double* original = data.data();
  std::vector<std::vector<std::int64_t>> per_level(ls.num_levels);
  for (unsigned li = 0; li < ls.num_levels; ++li) {
    per_level[li].assign(ls.level_count[li], 0);
  }
  interpolation_sweep(xhat.data(), ls, InterpKind::kCubic,
                      [&](unsigned li, std::size_t slot, std::size_t idx,
                          double pred) -> double {
                        std::int64_t code;
                        double recon;
                        if (quant.quantize(original[idx], pred, code, recon)) {
                          per_level[li][slot] = code;
                          return recon;
                        }
                        return original[idx];
                      });
  for (unsigned li = ls.num_levels; li-- > 0;) {
    out.insert(out.end(), per_level[li].begin(), per_level[li].end());
  }
  return out;
}

std::uint32_t to_twos_complement(std::int64_t q) {
  return static_cast<std::uint32_t>(static_cast<std::int32_t>(q));
}

std::uint32_t to_sign_magnitude(std::int64_t q) {
  std::uint32_t mag = static_cast<std::uint32_t>(q < 0 ? -q : q);
  return (mag << 1) | (q < 0 ? 1u : 0u);  // sign in the LSB so it loads first
}

/// Total codec size of all 32 planes of `values` (no prefix prediction, to
/// isolate the representation effect).
std::size_t planes_size(const std::vector<std::uint32_t>& values) {
  auto planes = extract_all_planes(values);
  std::size_t total = 0;
  for (unsigned k = 0; k < kPlaneCount; ++k) {
    total += codec_compress({planes[k].data(), planes[k].size()}).size();
  }
  return total;
}

}  // namespace

int main() {
  using namespace ipcomp;
  using namespace ipcomp::bench;
  banner("Coding ablation: number representation & prefix width",
         "paper §4.4 design choices");

  const auto& data = cached_field(Field::kDensity, scale());
  const double eb = 1e-6 * range_of(data);
  auto codes = quantize_codes(data, eb);

  std::vector<std::uint32_t> nb(codes.size()), tc(codes.size()), sm(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    nb[i] = negabinary_encode(codes[i]);
    tc[i] = to_twos_complement(codes[i]);
    sm[i] = to_sign_magnitude(codes[i]);
  }

  std::printf("--- (a) compressed plane bytes by representation ---\n");
  TableReporter ta({"representation", "plane bytes", "vs negabinary"});
  const std::size_t nb_size = planes_size(nb);
  for (auto& [name, values] :
       std::vector<std::pair<std::string, const std::vector<std::uint32_t>*>>{
           {"negabinary", &nb}, {"two's complement", &tc}, {"sign-magnitude", &sm}}) {
    std::size_t s = planes_size(*values);
    ta.row({name, std::to_string(s),
            TableReporter::num(100.0 * s / nb_size, 4) + "%"});
  }

  std::printf("\n--- (b) worst-case truncation uncertainty (units of 2eb) ---\n");
  TableReporter tb({"planes dropped", "negabinary", "sign-magnitude"});
  for (unsigned d : {4u, 8u, 12u, 16u}) {
    tb.row({std::to_string(d), std::to_string(negabinary_uncertainty(d)),
            std::to_string((std::int64_t{1} << d) - 1)});
  }

  std::printf("\n--- (c) archive size by predictive prefix width ---\n");
  TableReporter tr({"prefix bits", "archive bytes", "vs 2-bit"});
  Options base;
  base.error_bound = eb;
  base.relative = false;
  base.prefix_bits = 2;
  const std::size_t ref = compress(data.const_view(), base).size();
  for (unsigned prefix : {0u, 1u, 2u, 3u}) {
    Options opt = base;
    opt.prefix_bits = prefix;
    std::size_t s = compress(data.const_view(), opt).size();
    tr.row({std::to_string(prefix), std::to_string(s),
            TableReporter::num(100.0 * s / ref, 4) + "%"});
  }
  std::printf("\n--- (d) codec orchestration policy on the plane segments ---\n");
  {
    // The per-plane byte streams the real pipeline feeds the codec: the
    // negabinary residual planes of the 2-bit predictive XOR.
    const std::vector<Bytes> segs =
        encode_level(nb, /*with_loss=*/false, kDefaultPrefixBits).planes;
    TableReporter td({"policy", "plane bytes", "encode MB/s",
                      "empty/raw/rle/lzh/bitpack"});
    std::size_t raw_total = 0;
    for (const Bytes& s : segs) raw_total += s.size();
    for (CodecPolicy policy :
         {CodecPolicy::kProbe, CodecPolicy::kTryAll, CodecPolicy::kRle}) {
      std::size_t counts[5] = {};
      std::size_t total = 0;
      Timer timer;
      for (const Bytes& s : segs) {
        Bytes enc = codec_compress({s.data(), s.size()}, policy);
        total += enc.size();
        ++counts[enc[0] < 5 ? enc[0] : 1];
      }
      const double secs = timer.seconds();
      td.row({to_string(policy), std::to_string(total),
              TableReporter::num(mb_per_s(raw_total, secs), 5),
              std::to_string(counts[0]) + "/" + std::to_string(counts[1]) +
                  "/" + std::to_string(counts[2]) + "/" +
                  std::to_string(counts[3]) + "/" + std::to_string(counts[4])});
    }
  }

  std::printf("\nExpected shape: negabinary smallest planes and ~2/3 the "
              "truncation uncertainty of sign-magnitude; 2-bit prefix at or "
              "near the size optimum (paper Table 2); probe routing at or "
              "near try-all size at a higher encode rate, high planes to "
              "empty/bitpack and low planes to raw.\n");
  return 0;
}
