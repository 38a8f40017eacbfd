// Link check: the shipped library alone is a complete product.  This program
// includes only the umbrella header and links only ipcomp::ipcomp (no
// evaluation code), compresses a small analytic 3-D field in 16^3 blocks,
// retrieves it at full fidelity through two fresh readers, and exits non-zero
// unless the L∞ error is within the guarantee and both reconstructions are
// bitwise identical.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <vector>

#include "ipcomp.hpp"

namespace {

std::vector<double> full_read(const ipcomp::Bytes& archive,
                              double* guaranteed) {
  ipcomp::MemorySource src(archive);
  ipcomp::ProgressiveReader<double> reader(src);
  *guaranteed = reader.retrieve(ipcomp::Request::full()).guaranteed_error;
  return reader.data();
}

int run() {
  const ipcomp::Dims dims{40, 36, 28};
  ipcomp::NdArray<double> field(dims);
  std::vector<double>& v = field.vector();
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims[0]; ++z) {
    for (std::size_t y = 0; y < dims[1]; ++y) {
      for (std::size_t x = 0; x < dims[2]; ++x) {
        v[i++] = std::sin(0.2 * static_cast<double>(x)) *
                     std::cos(0.15 * static_cast<double>(y)) +
                 0.01 * static_cast<double>(z);
      }
    }
  }

  ipcomp::Options opt;
  opt.error_bound = 1e-5;
  opt.block_side = 16;
  const ipcomp::Bytes archive = ipcomp::compress(field.const_view(), opt);

  double guaranteed_a = 0.0;
  double guaranteed_b = 0.0;
  const std::vector<double> a = full_read(archive, &guaranteed_a);
  const std::vector<double> b = full_read(archive, &guaranteed_b);

  double linf = 0.0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    linf = std::fmax(linf, std::fabs(a[k] - v[k]));
  }
  std::printf("core_link_check: %zu bytes, L-inf %.3g, guaranteed %.3g\n",
              archive.size(), linf, guaranteed_a);
  if (!(linf <= guaranteed_a)) {
    std::fprintf(stderr, "core_link_check: L-inf exceeds the guarantee\n");
    return 1;
  }
  if (a.size() != b.size() || guaranteed_a != guaranteed_b ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    std::fprintf(stderr, "core_link_check: fresh readers disagree\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main() {
  try {
    return run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "core_link_check: %s\n", e.what());
    return 1;
  }
}
