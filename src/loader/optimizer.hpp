// Optimized data loading (paper §5): choose, per level, how many low
// bitplanes to skip so that either
//   * error-bound mode — the guaranteed L∞ error stays ≤ E while the bytes
//     loaded are minimized, or
//   * bitrate mode — the bytes loaded stay ≤ S while the guaranteed error is
//     minimized.
// Both are multiple-choice knapsacks solved by dynamic programming over a
// budget axis cut into kPlannerBins bins.  Each level's cost is rounded *up*
// to whole bins, so the discretized constraint implies the real one and a
// plan never exceeds the caller's budget; the price is that the optimum is
// found only to within one bin per level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ipcomp {

/// Resolution of the DP budget grid: the error budget (error-bound mode) or
/// the byte budget (bitrate mode) is split into this many bins.
inline constexpr std::size_t kPlannerBins = 1021;

/// Planner view of one progressive level.
struct LevelPlanInput {
  /// Compressed byte size of each stored plane; index 0 = LSB.
  std::vector<std::uint64_t> plane_size;
  /// err[d]: guaranteed error contribution (value units, amplification
  /// already applied) of dropping the d lowest stored planes; size n+1.
  std::vector<double> err;
  /// Planes already resident from previous requests, counted from the top
  /// (MSB side).  Their bytes are sunk: free to use, impossible to unload.
  unsigned already_loaded = 0;
};

struct LoadPlan {
  /// Per level: number of planes to use, counted from the top.  Always
  /// >= already_loaded for that level.
  std::vector<unsigned> planes_to_use;
  /// Sum of err[d] over levels under the chosen plan (value units).
  double guaranteed_error = 0.0;
  /// Bytes of not-yet-loaded plane segments the plan will fetch.
  std::uint64_t new_bytes = 0;
};

/// Error-bound mode: minimize newly loaded bytes subject to
/// Σ err ≤ error_budget (the caller passes E − eb).
LoadPlan plan_error_bound(const std::vector<LevelPlanInput>& levels,
                          double error_budget);

/// Bitrate mode: minimize Σ err subject to new bytes ≤ byte_budget.
LoadPlan plan_byte_budget(const std::vector<LevelPlanInput>& levels,
                          std::uint64_t byte_budget);

}  // namespace ipcomp
