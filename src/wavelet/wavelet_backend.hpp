// CDF 9/7 wavelet backend behind the ProgressiveBackend seam.
//
// Write side (per block): gather the block into a dense double buffer
// (non-finite values sanitized to 0 and restored through corrections) →
// multi-level CDF 9/7 forward transform → uniform coefficient quantization
// to negabinary codes (coefficient-domain outliers for codes past the cap) →
// the shared bitplane/codec stages.  "Levels" are the wavelet subband
// levels: index 0 = finest detail band, index W = the approximation band.
//
// Progressive error control: the inverse transform is linear, so the field
// reconstructed from partial codes equals the full reconstruction minus the
// inverse transform of the dropped low bits.  Compression measures that
// inverse exactly, plane by plane, and stores per-level loss tables in
// *value* units (quantization-step granularity) — the reader's amplification
// hook is therefore 1.0 and the shared plane planner stays sound and tight.
// Full-fidelity L∞ correctness is guaranteed SPERR-style: compression
// self-decodes (bitwise the reader's reconstruction path), records an exact
// spatial correction for every point still violating the bound, and stores
// them in the block's auxiliary segment (kSegAux), applied after every
// reconstruction.
#pragma once

#include "core/backend.hpp"

namespace ipcomp {

class WaveletBackend final : public ProgressiveBackend {
 public:
  BackendId id() const override { return BackendId::kWavelet; }
  const char* name() const override { return "wavelet"; }

  std::vector<std::uint64_t> level_counts(const Dims& block_dims) const override;
  bool has_aux_segment() const override { return true; }
  Bytes metadata(const Header& h) const override;
  void validate_metadata(const Header& h) const override;
  double amplification(const Header& h, ErrorModel model,
                       unsigned l) const override;

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
