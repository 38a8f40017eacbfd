// IPComp behind the common baseline interface, plus the compressor registry
// used by every bench harness (the line-up of §6.1.3).
#pragma once

#include <memory>

#include "baselines/baseline.hpp"
#include "core/options.hpp"

namespace ipcomp {

class IpcompAdapter final : public ProgressiveCompressor {
 public:
  explicit IpcompAdapter(Options opt = {}, std::string name = "IPComp")
      : opt_(opt), name_(std::move(name)) {
    opt_.relative = false;  // the adapter interface speaks absolute bounds
  }

  std::string name() const override { return name_; }
  std::string backend_label() const override;
  Bytes compress(NdConstView<double> data, double eb_abs) override;
  std::vector<double> decompress(const Bytes& archive) override;
  Retrieval retrieve_error(const Bytes& archive, double target) override;
  Retrieval retrieve_bytes(const Bytes& archive, std::uint64_t budget) override;

 private:
  Options opt_;
  std::string name_;
};

/// All progressive compressors of the paper's evaluation:
/// IPComp, SZ3-M, SZ3-R, ZFP-R, PMGARD.
std::vector<std::shared_ptr<ProgressiveCompressor>> evaluation_lineup();

/// The same plus SPERR-R (which Fig. 8 adds for the speed study).
std::vector<std::shared_ptr<ProgressiveCompressor>> speed_lineup();

/// Block-decomposed IPComp (archive v2) at the benchmarks' canonical block
/// side; shared so fig5/fig8/CI all track the same variant.
std::shared_ptr<ProgressiveCompressor> ipcomp_block_variant();

/// IPComp's wavelet backend (archive v3) at the same canonical block side;
/// the second first-class backend behind the ProgressiveBackend seam.
std::shared_ptr<ProgressiveCompressor> ipcomp_wavelet_variant();

/// Residual compressor factory (for the Fig. 9 residual-count sweep).
std::shared_ptr<ProgressiveCompressor> make_residual(const std::string& base,
                                                     int stages);

}  // namespace ipcomp
