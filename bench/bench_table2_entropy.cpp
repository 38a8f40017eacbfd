// Table 2: bit entropy of the quantized-integer bitplane stream before and
// after predictive XOR coding with 1/2/3 prefix bits, on Density, SpeedX and
// Wave.  Lower entropy = better compressibility; 2-bit prefix should win or
// tie (the paper's default).
#include "bench_common.hpp"
#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "coding/entropy.hpp"
#include "interp/sweep.hpp"
#include "quant/quantizer.hpp"

namespace {

using namespace ipcomp;

/// Run the IPComp predictor on `data` and return all levels' negabinary codes.
std::vector<std::vector<std::uint32_t>> quantize_levels(
    const NdArray<double>& data, double eb) {
  const LevelStructure ls = LevelStructure::analyze(data.dims());
  std::vector<std::vector<std::uint32_t>> codes(ls.num_levels);
  for (unsigned li = 0; li < ls.num_levels; ++li) {
    codes[li].assign(ls.level_count[li], 0);
  }
  const LinearQuantizer quant(eb);
  std::vector<double> xhat(data.vector());
  const double* original = data.data();
  interpolation_sweep(xhat.data(), ls, InterpKind::kCubic,
                      [&](unsigned li, std::size_t slot, std::size_t idx,
                          double pred) -> double {
                        std::int64_t code;
                        double recon;
                        if (quant.quantize(original[idx], pred, code, recon)) {
                          codes[li][slot] = negabinary_encode(code);
                          return recon;
                        }
                        return original[idx];
                      });
  return codes;
}

/// Aggregate bit entropy over the informative planes of every level,
/// weighted by plane length.
double stream_entropy(const std::vector<std::vector<std::uint32_t>>& levels,
                      unsigned prefix_bits) {
  double weighted = 0.0;
  double total_bits = 0.0;
  for (const auto& codes : levels) {
    const LevelEncoding enc =
        encode_level(codes, /*with_loss=*/false, prefix_bits);
    for (const Bytes& stream : enc.planes) {
      const double h = bit_entropy(stream, codes.size());
      weighted += h * static_cast<double>(codes.size());
      total_bits += static_cast<double>(codes.size());
    }
  }
  return total_bits > 0 ? weighted / total_bits : 0.0;
}

}  // namespace

int main() {
  using namespace ipcomp;
  using namespace ipcomp::bench;
  banner("Predictive bitplane coding entropy", "paper Table 2");

  TableReporter table({"Fields", "Original", "1-bit prefix", "2-bits prefix",
                       "3-bits prefix"});
  for (Field f : {Field::kDensity, Field::kSpeedX, Field::kWave}) {
    const auto& data = cached_field(f, scale());
    const double eb = 1e-6 * range_of(data);
    auto levels = quantize_levels(data, eb);
    std::vector<std::string> row = {field_name(f)};
    for (unsigned prefix : {0u, 1u, 2u, 3u}) {
      row.push_back(TableReporter::num(stream_entropy(levels, prefix), 6));
    }
    table.row(row);
  }
  std::printf("\nExpected shape: every prefix width lowers entropy vs the "
              "original; 2 bits is the (near-)best, as in Table 2.\n");
  return 0;
}
