// Error propagation for partial-bitplane retrieval (paper Theorem 1).
//
// A level's truncation loss is amplified as predictions chain toward finer
// levels.  The paper's Theorem 1 charges level l with p^(l-1), p = ‖P‖∞
// (1 for linear, 1.25 for cubic), treating each level as one application of
// P.  The interpolation sweep is dimension by dimension, though: within a
// level, pass t's predictions consume pass t-1's outputs, so a level applies
// P up to `rank` times, and on 3-D sweeps the Theorem 1 figure can be
// exceeded by the actual error.  The bound used here follows the sweep: with
// the recurrence M_t = p·M_{t-1} + δ, the per-level map is
// D_l = p^r·D_{l+1} + g·δ_l, g = (p^r − 1)/(p − 1) (or r when p = 1), giving
//
//   amp(l) = g · (p^r)^(l-1).
//
// The recurrence proves it, so guaranteed_error ≥ actual L∞ error holds for
// every plan; the guarantee tests assert exactly that.  A request that loads
// everything has δ = 0 and no amplified loss at all.
#pragma once

#include <cmath>

#include "interp/interpolation.hpp"

namespace ipcomp {

/// Amplification applied to the truncation loss of level `l` (1-based,
/// 1 = finest) for a `rank`-dimensional sweep.
inline double level_amplification(InterpKind kind, unsigned rank, unsigned l) {
  const double p = interp_p_norm(kind);
  const double pr = std::pow(p, static_cast<double>(rank));
  const double g = (p == 1.0) ? static_cast<double>(rank) : (pr - 1.0) / (p - 1.0);
  return g * std::pow(pr, static_cast<double>(l - 1));
}

}  // namespace ipcomp
