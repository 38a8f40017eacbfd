// The paper's interpolation backend behind the ProgressiveBackend seam.
//
// Write side: multi-level interpolation sweep with in-loop quantization
// (paper §4.1/§4.2) producing per-level negabinary codes + outliers, then the
// shared bitplane/codec stages.  Read side: the same sweep driven by
// dequantized codes (Algorithm 1), rerun from the accumulated codes whenever
// new bitplanes arrive (Algorithm 2's refinement).  This backend is the
// behavior-preserving refactor of the original hardwired pipeline: segments
// are byte-identical to those written before the seam existed (v1/v2).
#pragma once

#include "core/backend.hpp"

namespace ipcomp {

class InterpBackend final : public ProgressiveBackend {
 public:
  BackendId id() const override { return BackendId::kInterp; }
  const char* name() const override { return "interp"; }

  std::vector<std::uint64_t> level_counts(const Dims& block_dims) const override;
  bool has_aux_segment() const override { return false; }
  Bytes metadata(const Header&) const override { return {}; }
  void validate_metadata(const Header&) const override {}
  double amplification(const Header& h, unsigned l) const override;

  BlockCompressResult compress_block(
      const float* original, float* work, const Dims& block_dims,
      const std::array<std::size_t, kMaxRank>& estrides, double eb,
      const Options& opt, std::uint32_t block) const override;
  BlockCompressResult compress_block(
      const double* original, double* work, const Dims& block_dims,
      const std::array<std::size_t, kMaxRank>& estrides, double eb,
      const Options& opt, std::uint32_t block) const override;

  void reconstruct(const Header& h, const BlockCodes& bc,
                   float* field) const override;
  void reconstruct(const Header& h, const BlockCodes& bc,
                   double* field) const override;
};

}  // namespace ipcomp
