// Table 3: the dataset inventory — name, domain, precision, paper shape, the
// shape generated at the current scale, and basic statistics of the
// synthetic stand-ins (range/mean, to document the substitution).
#include <cmath>

#include "bench_common.hpp"

int main() {
  using namespace ipcomp;
  using namespace ipcomp::bench;
  banner("Dataset inventory", "paper Table 3");

  auto paper = standard_datasets(DataScale::kPaper);
  auto current = datasets();
  TableReporter table({"Name", "Domain", "Precision", "Paper shape",
                       "Bench shape", "min", "max", "mean"});
  for (std::size_t i = 0; i < current.size(); ++i) {
    const auto& data = data_for(current[i]);
    double lo = data[0], hi = data[0], mean = 0;
    for (std::size_t j = 0; j < data.count(); ++j) {
      lo = std::min(lo, data[j]);
      hi = std::max(hi, data[j]);
      mean += data[j];
    }
    mean /= static_cast<double>(data.count());
    table.row({current[i].name, current[i].domain, "64", paper[i].dims.to_string(),
               current[i].dims.to_string(), TableReporter::num(lo, 4),
               TableReporter::num(hi, 4), TableReporter::num(mean, 4)});
  }
  std::printf("\nDatasets are deterministic synthetic stand-ins for the "
              "SDRBench originals at the paper's dimensions; use "
              "sdr_raw_read() to run every harness on the real files "
              "instead.\n");
  return 0;
}
