// Interpolation kernels (paper §4.1).
//
// Both kernels use fixed coefficients at fixed relative indices, so nothing
// is stored to reconstruct predictions.  Boundary handling degrades cubic →
// linear → nearest-copy; every kernel keeps ‖coefficients‖₁ ≤ p so the error
// propagation bound of Theorem 1 applies.  Extrapolation is never used: a
// linear extrapolation 2·x₁ − x₂ has ‖·‖₁ = 3, which would raise p and with
// it every level's amplification in the loader's guarantee.
#pragma once

#include <cstdint>
#include <string>

namespace ipcomp {

enum class InterpKind : std::uint8_t {
  kLinear = 0,
  kCubic = 1,
};

inline const char* to_string(InterpKind k) {
  return k == InterpKind::kLinear ? "linear" : "cubic";
}

/// ‖P‖∞ (max abs row sum) of the interpolation operator: the per-application
/// worst-case amplification of input perturbations.
inline double interp_p_norm(InterpKind k) {
  return k == InterpKind::kLinear ? 1.0 : 1.25;
}

/// y_i = (x_{i-1} + x_{i+1}) / 2
template <typename T>
inline T interp_linear(T a, T b) {
  return static_cast<T>((a + b) / 2);
}

/// y_i = -1/16 x_{i-3} + 9/16 x_{i-1} + 9/16 x_{i+1} - 1/16 x_{i+3}
template <typename T>
inline T interp_cubic(T m3, T m1, T p1, T p3) {
  return static_cast<T>((-m3 + 9 * m1 + 9 * p1 - p3) / 16);
}

}  // namespace ipcomp
