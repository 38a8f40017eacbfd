// MGARD-style multilevel decomposition and the PMGARD progressive baseline
// (paper §6.1.3; Ainsworth et al., Liang et al. SC'21).
//
// The substrate is the hierarchical (interpolation-basis) multilinear
// decomposition: level-l coefficients are the differences between nodal
// values and the multilinear interpolation of the *original* coarser grid —
// unlike the SZ3/IPComp prediction loop there is no quantization feedback,
// which is what makes independently re-quantizable per-level coefficients
// (and hence progressive retrieval) possible.  We omit reference MGARD's
// global L2-projection correction term: PMGARD's progressive machinery rests
// on the hierarchy itself, and the correction mainly improves smooth-norm
// (s < ∞) guarantees, while the paper's evaluation measures only L∞.
//
// PMGARD stores each level's coefficients as negabinary bitplanes of a
// 31-bit fixed-point representation (effectively lossless: ≤ 2^-30 relative
// per level) and retrieves progressively under either an error target or a
// byte budget, using the same knapsack planner as IPComp with the multilinear
// amplification model (‖P‖∞ = 1 ⇒ amp = rank).
#pragma once

#include "baselines/baseline.hpp"
#include "util/dims.hpp"

namespace ipcomp {

/// Hierarchical multilinear decomposition: returns per-level coefficient
/// arrays in sweep slot order (index 0 = finest level).
std::vector<std::vector<double>> mgard_decompose(NdConstView<double> data);

/// Inverse of mgard_decompose.
std::vector<double> mgard_recompose(const Dims& dims,
                                    const std::vector<std::vector<double>>& coeffs);

class PmgardCompressor final : public ProgressiveCompressor {
 public:
  std::string name() const override { return "PMGARD"; }

  /// PMGARD archives are precision-complete by design (the paper evaluates it
  /// as "lossless compression with lossy retrieval"); eb_abs is recorded for
  /// reporting but does not limit the stored precision.
  Bytes compress(NdConstView<double> data, double eb_abs) override;
  std::vector<double> decompress(const Bytes& archive) override;
  Retrieval retrieve_error(const Bytes& archive, double target) override;
  Retrieval retrieve_bytes(const Bytes& archive, std::uint64_t budget) override;

 private:
  struct Plan;
  Retrieval retrieve(const Bytes& archive, double error_target,
                     std::uint64_t byte_budget, bool byte_mode) const;
};

}  // namespace ipcomp
