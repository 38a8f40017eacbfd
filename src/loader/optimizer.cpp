#include "loader/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ipcomp {

namespace {

struct Choice {
  unsigned max_drop;                      // n_planes - already_loaded
  unsigned n_planes;
  std::vector<std::uint64_t> cum_size;    // cum_size[d] = bytes of d lowest planes
  std::uint64_t loadable;                 // bytes of the not-yet-loaded planes
};

std::vector<Choice> prepare(const std::vector<LevelPlanInput>& levels) {
  std::vector<Choice> out;
  out.reserve(levels.size());
  for (const auto& l : levels) {
    Choice c;
    c.n_planes = static_cast<unsigned>(l.plane_size.size());
    if (l.err.size() != l.plane_size.size() + 1) {
      throw std::invalid_argument("planner: err table size mismatch");
    }
    if (l.already_loaded > c.n_planes) {
      throw std::invalid_argument("planner: already_loaded out of range");
    }
    c.max_drop = c.n_planes - l.already_loaded;
    c.cum_size.assign(c.n_planes + 1, 0);
    for (unsigned d = 1; d <= c.n_planes; ++d) {
      c.cum_size[d] = c.cum_size[d - 1] + l.plane_size[d - 1];
    }
    c.loadable = c.cum_size[c.max_drop];  // everything below the loaded block
    out.push_back(std::move(c));
  }
  return out;
}

LoadPlan finalize(const std::vector<LevelPlanInput>& levels,
                  const std::vector<Choice>& ch, const std::vector<unsigned>& drop) {
  LoadPlan plan;
  plan.planes_to_use.resize(levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    unsigned d = drop[i];
    plan.planes_to_use[i] = ch[i].n_planes - d;
    plan.guaranteed_error += levels[i].err[d];
    plan.new_bytes += ch[i].cum_size[ch[i].max_drop] - ch[i].cum_size[d];
  }
  return plan;
}

}  // namespace

// ---------------------------------------------------------------- DP: EB ---

LoadPlan plan_error_bound(const std::vector<LevelPlanInput>& levels,
                          double error_budget) {
  auto ch = prepare(levels);
  const std::size_t n = levels.size();
  std::vector<unsigned> drop(n, 0);
  if (error_budget <= 0.0) {
    // Only zero-error drops are admissible.
    for (std::size_t i = 0; i < n; ++i) {
      unsigned d = 0;
      while (d < ch[i].max_drop && levels[i].err[d + 1] == 0.0) ++d;
      drop[i] = d;
    }
    return finalize(levels, ch, drop);
  }

  const double binw = error_budget / static_cast<double>(kPlannerBins);
  auto cost_of = [&](double err) -> std::size_t {
    if (err <= 0.0) return 0;
    // Round the error cost UP so the discretized constraint implies the real
    // one: sum(cost)*binw >= sum(err) never understates.
    double bins = std::ceil(err / binw);
    if (bins > static_cast<double>(kPlannerBins)) return kPlannerBins + 1;  // infeasible
    return static_cast<std::size_t>(bins);
  };

  constexpr std::int64_t kNegInf = std::numeric_limits<std::int64_t>::min() / 2;
  // tables[i][e] = max bytes saved by levels [0, i) with error cost <= e bins.
  std::vector<std::vector<std::int64_t>> tables(
      n + 1, std::vector<std::int64_t>(kPlannerBins + 1, kNegInf));
  tables[0][0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t e0 = 0; e0 <= kPlannerBins; ++e0) {
      if (tables[i][e0] == kNegInf) continue;
      for (unsigned d = 0; d <= ch[i].max_drop; ++d) {
        std::size_t cost = cost_of(levels[i].err[d]);
        if (cost > kPlannerBins || e0 + cost > kPlannerBins) continue;
        std::int64_t v = tables[i][e0] + static_cast<std::int64_t>(ch[i].cum_size[d]);
        if (v > tables[i + 1][e0 + cost]) tables[i + 1][e0 + cost] = v;
      }
    }
  }

  std::size_t best_e = 0;
  std::int64_t best = kNegInf;
  for (std::size_t e = 0; e <= kPlannerBins; ++e) {
    if (tables[n][e] > best) {
      best = tables[n][e];
      best_e = e;
    }
  }
  // d = 0 costs 0 error for every level, so a solution always exists.
  std::size_t e = best_e;
  for (std::size_t i = n; i-- > 0;) {
    bool found = false;
    for (unsigned d = 0; d <= ch[i].max_drop && !found; ++d) {
      std::size_t cost = cost_of(levels[i].err[d]);
      if (cost > kPlannerBins || cost > e) continue;
      if (tables[i][e - cost] != kNegInf &&
          tables[i][e - cost] + static_cast<std::int64_t>(ch[i].cum_size[d]) ==
              tables[i + 1][e]) {
        drop[i] = d;
        e -= cost;
        found = true;
      }
    }
    if (!found) throw std::logic_error("planner: backtrack failed");
  }
  return finalize(levels, ch, drop);
}

// ---------------------------------------------------------------- DP: BR ---

LoadPlan plan_byte_budget(const std::vector<LevelPlanInput>& levels,
                          std::uint64_t byte_budget) {
  auto ch = prepare(levels);
  const std::size_t n = levels.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  const double binw = std::max(1.0, static_cast<double>(byte_budget) /
                                        static_cast<double>(kPlannerBins));
  // Capacity in bins such that capacity*binw <= byte_budget is implied by
  // the per-item ceil-rounding (rounding up can only tighten the budget).
  const std::size_t capacity = static_cast<std::size_t>(
      std::min(static_cast<double>(kPlannerBins),
               std::floor(static_cast<double>(byte_budget) / binw)));
  auto cost_of = [&](std::uint64_t bytes) -> std::size_t {
    if (bytes == 0) return 0;
    if (bytes > byte_budget) return capacity + 1;  // infeasible on its own
    double bins = std::ceil(static_cast<double>(bytes) / binw);
    if (bins > static_cast<double>(capacity)) return capacity + 1;
    return static_cast<std::size_t>(bins);
  };

  std::vector<std::vector<double>> tables(n + 1,
                                          std::vector<double>(capacity + 1, kInf));
  tables[0][0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s0 = 0; s0 <= capacity; ++s0) {
      if (tables[i][s0] == kInf) continue;
      for (unsigned d = 0; d <= ch[i].max_drop; ++d) {
        std::uint64_t load = ch[i].loadable - ch[i].cum_size[d];
        std::size_t cost = cost_of(load);
        if (cost > capacity || s0 + cost > capacity) continue;
        double err = tables[i][s0] + levels[i].err[d];
        if (err < tables[i + 1][s0 + cost]) tables[i + 1][s0 + cost] = err;
      }
    }
  }

  std::size_t best_s = 0;
  double best = kInf;
  for (std::size_t s = 0; s <= capacity; ++s) {
    if (tables[n][s] < best) {
      best = tables[n][s];
      best_s = s;
    }
  }
  std::vector<unsigned> drop(n, 0);
  if (best == kInf) {
    // Budget below even the cheapest plan: drop everything droppable.
    for (std::size_t i = 0; i < n; ++i) drop[i] = ch[i].max_drop;
    return finalize(levels, ch, drop);
  }
  std::size_t s = best_s;
  for (std::size_t i = n; i-- > 0;) {
    bool found = false;
    for (unsigned d = 0; d <= ch[i].max_drop && !found; ++d) {
      std::uint64_t load = ch[i].loadable - ch[i].cum_size[d];
      std::size_t cost = cost_of(load);
      if (cost > capacity || cost > s) continue;
      if (tables[i][s - cost] != kInf &&
          tables[i][s - cost] + levels[i].err[d] == tables[i + 1][s]) {
        drop[i] = d;
        s -= cost;
        found = true;
      }
    }
    if (!found) throw std::logic_error("planner: backtrack failed");
  }
  return finalize(levels, ch, drop);
}

}  // namespace ipcomp
