#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "loader/error_model.hpp"
#include "loader/optimizer.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

LevelPlanInput make_level(std::vector<std::uint64_t> sizes,
                          std::vector<double> err, unsigned loaded = 0) {
  LevelPlanInput in;
  in.plane_size = std::move(sizes);
  in.err = std::move(err);
  in.already_loaded = loaded;
  return in;
}

std::vector<LevelPlanInput> random_levels(Rng& rng, std::size_t n_levels) {
  std::vector<LevelPlanInput> levels;
  for (std::size_t l = 0; l < n_levels; ++l) {
    unsigned planes = static_cast<unsigned>(rng.uniform_u64(12));
    std::vector<std::uint64_t> sizes(planes);
    for (auto& s : sizes) s = 1 + rng.uniform_u64(10000);
    std::vector<double> err(planes + 1);
    err[0] = 0;
    double acc = 0;
    for (unsigned d = 1; d <= planes; ++d) {
      acc += rng.uniform(0, 1);
      err[d] = acc;  // monotone here, though the planner does not require it
    }
    levels.push_back(make_level(std::move(sizes), std::move(err)));
  }
  return levels;
}

double plan_error(const std::vector<LevelPlanInput>& levels, const LoadPlan& p) {
  double e = 0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    e += levels[i].err[levels[i].plane_size.size() - p.planes_to_use[i]];
  }
  return e;
}

std::uint64_t plan_new_bytes(const std::vector<LevelPlanInput>& levels,
                             const LoadPlan& p) {
  std::uint64_t b = 0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    unsigned n = static_cast<unsigned>(levels[i].plane_size.size());
    for (unsigned k = n - p.planes_to_use[i]; k < n - levels[i].already_loaded; ++k) {
      b += levels[i].plane_size[k];
    }
  }
  return b;
}

TEST(Planner, ErrorBudgetNeverViolated) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    auto levels = random_levels(rng, 1 + rng.uniform_u64(8));
    double budget = rng.uniform(0, 10);
    auto plan = plan_error_bound(levels, budget);
    EXPECT_LE(plan_error(levels, plan), budget + 1e-9);
    EXPECT_DOUBLE_EQ(plan.guaranteed_error, plan_error(levels, plan));
    EXPECT_EQ(plan.new_bytes, plan_new_bytes(levels, plan));
  }
}

TEST(Planner, ByteBudgetNeverViolated) {
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    auto levels = random_levels(rng, 1 + rng.uniform_u64(8));
    std::uint64_t budget = rng.uniform_u64(100000);
    auto plan = plan_byte_budget(levels, budget);
    EXPECT_LE(plan_new_bytes(levels, plan), budget);
  }
}

TEST(Planner, RespectsAlreadyLoaded) {
  Rng rng(44);
  for (int trial = 0; trial < 30; ++trial) {
    auto levels = random_levels(rng, 4);
    for (auto& l : levels) {
      l.already_loaded = static_cast<unsigned>(
          rng.uniform_u64(l.plane_size.size() + 1));
    }
    auto plan = plan_error_bound(levels, rng.uniform(0, 5));
    for (std::size_t i = 0; i < levels.size(); ++i) {
      EXPECT_GE(plan.planes_to_use[i], levels[i].already_loaded);
    }
  }
}

TEST(Planner, ZeroBudgetLoadsOnlyFreebies) {
  auto levels = std::vector<LevelPlanInput>{
      make_level({100, 200, 300}, {0, 0, 0.5, 2.0}),
  };
  auto plan = plan_error_bound(levels, 0.0);
  // err[1] = 0 means the lowest plane may be dropped for free.
  EXPECT_LE(plan.guaranteed_error, 0.0);
  EXPECT_EQ(plan.planes_to_use[0], 2u);
}

TEST(Planner, HugeBudgetDropsEverything) {
  auto levels = std::vector<LevelPlanInput>{
      make_level({10, 10}, {0, 1, 2}),
      make_level({10, 10, 10}, {0, 1, 2, 3}),
  };
  auto plan = plan_error_bound(levels, 1e9);
  EXPECT_EQ(plan.planes_to_use[0], 0u);
  EXPECT_EQ(plan.planes_to_use[1], 0u);
  EXPECT_EQ(plan.new_bytes, 0u);
}

/// Every admissible plan of a small instance: one drop count per level, from
/// 0 up to the planes not yet loaded.
template <typename Visit>
void for_each_plan(const std::vector<LevelPlanInput>& levels, Visit visit) {
  std::vector<unsigned> drop(levels.size(), 0);
  while (true) {
    LoadPlan p;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      p.planes_to_use.push_back(
          static_cast<unsigned>(levels[i].plane_size.size()) - drop[i]);
    }
    p.guaranteed_error = plan_error(levels, p);
    p.new_bytes = plan_new_bytes(levels, p);
    visit(p);
    std::size_t i = 0;
    for (; i < levels.size(); ++i) {
      const unsigned max_drop = static_cast<unsigned>(
          levels[i].plane_size.size() - levels[i].already_loaded);
      if (drop[i] < max_drop) {
        ++drop[i];
        break;
      }
      drop[i] = 0;
    }
    if (i == levels.size()) return;
  }
}

/// Error-bound mode against exhaustive search: the DP plan keeps its budget,
/// and fetches no more than the cheapest plan that fits the budget tightened
/// by one grid bin per level.
void expect_error_bound_optimal(const std::vector<LevelPlanInput>& levels,
                                double budget) {
  const LoadPlan dp = plan_error_bound(levels, budget);
  EXPECT_LE(dp.guaranteed_error, budget);
  EXPECT_EQ(dp.new_bytes, plan_new_bytes(levels, dp));
  const double n = static_cast<double>(levels.size());
  const double tight = budget - n * budget / static_cast<double>(kPlannerBins);
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for_each_plan(levels, [&](const LoadPlan& p) {
    if (p.guaranteed_error <= tight) best = std::min(best, p.new_bytes);
  });
  EXPECT_LE(dp.new_bytes, best) << "error budget " << budget;
}

/// Bitrate mode against exhaustive search: the DP plan keeps its budget, and
/// guarantees no more error than the best plan that fits the budget
/// tightened by one grid bin per level plus one for the floored capacity.
void expect_byte_budget_optimal(const std::vector<LevelPlanInput>& levels,
                                std::uint64_t budget) {
  const LoadPlan dp = plan_byte_budget(levels, budget);
  EXPECT_LE(dp.new_bytes, budget);
  EXPECT_EQ(dp.new_bytes, plan_new_bytes(levels, dp));
  const double binw = std::max(
      1.0, static_cast<double>(budget) / static_cast<double>(kPlannerBins));
  const double tight = static_cast<double>(budget) -
                       static_cast<double>(levels.size() + 1) * binw;
  double best = std::numeric_limits<double>::infinity();
  for_each_plan(levels, [&](const LoadPlan& p) {
    if (static_cast<double>(p.new_bytes) <= tight) {
      best = std::min(best, p.guaranteed_error);
    }
  });
  EXPECT_LE(dp.guaranteed_error, best * (1 + 1e-12)) << "byte budget " << budget;
}

TEST(Planner, DpMatchesExhaustiveSearchWithinItsGrid) {
  // The DP rounds each level's cost up to whole bins of budget / kPlannerBins,
  // so it can lose at most one bin per level against the exact optimum: any
  // plan that fits a budget tightened by n bins (n + 1 in bitrate mode, where
  // the capacity is also floored) is feasible on its grid, and the DP is
  // optimal there.  Each instance is checked at a random budget and at the
  // budget whose tightened value is exactly a random plan's cost, where a
  // coarser grid or a missed optimum shows.
  Rng rng(46);
  const double bins = static_cast<double>(kPlannerBins);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t n = 1 + rng.uniform_u64(4);
    std::vector<LevelPlanInput> levels;
    for (std::size_t l = 0; l < n; ++l) {
      const unsigned planes = static_cast<unsigned>(rng.uniform_u64(6));
      std::vector<std::uint64_t> sizes(planes);
      for (auto& s : sizes) s = rng.uniform_u64(5000);
      std::vector<double> err(planes + 1, 0.0);
      for (unsigned d = 1; d <= planes; ++d) {
        err[d] = err[d - 1] + rng.uniform(0, 1) * std::ldexp(1.0, -int(l));
      }
      const auto loaded = static_cast<unsigned>(rng.uniform_u64(planes + 1));
      levels.push_back(make_level(std::move(sizes), std::move(err), loaded));
    }
    // Every admissible plan; pick one to aim the boundary budgets at.
    std::vector<LoadPlan> plans;
    for_each_plan(levels, [&](const LoadPlan& p) { plans.push_back(p); });
    const LoadPlan& least = plans.back();  // drops everything droppable
    const LoadPlan& aim = plans[rng.uniform_u64(plans.size())];

    const double max_err = std::max(least.guaranteed_error, 1e-3);
    expect_error_bound_optimal(levels, rng.uniform(1e-3, 1.0) * max_err);
    if (aim.guaranteed_error > 0.0) {
      expect_error_bound_optimal(
          levels, aim.guaranteed_error * bins / (bins - static_cast<double>(n)));
    }

    const std::uint64_t max_bytes = plans.front().new_bytes;  // loads all
    expect_byte_budget_optimal(levels, rng.uniform_u64(max_bytes + 1));
    const double slack = static_cast<double>(n + 1);
    const double aimed = static_cast<double>(aim.new_bytes);
    expect_byte_budget_optimal(
        levels, static_cast<std::uint64_t>(std::ceil(
                    std::max(aimed + slack, aimed * bins / (bins - slack)))));
  }
}

/// Seeded instance of at most 4 levels x 5 planes with random residency, the
/// shape the exhaustive checks below can enumerate.
std::vector<LevelPlanInput> small_levels(Rng& rng) {
  const std::size_t n = 1 + rng.uniform_u64(4);
  std::vector<LevelPlanInput> levels;
  for (std::size_t l = 0; l < n; ++l) {
    const unsigned planes = static_cast<unsigned>(rng.uniform_u64(6));
    std::vector<std::uint64_t> sizes(planes);
    for (auto& s : sizes) s = rng.uniform_u64(400);
    std::vector<double> err(planes + 1, 0.0);
    for (unsigned d = 1; d <= planes; ++d) err[d] = err[d - 1] + rng.uniform(0, 1);
    const auto loaded = static_cast<unsigned>(rng.uniform_u64(planes + 1));
    levels.push_back(make_level(std::move(sizes), std::move(err), loaded));
  }
  return levels;
}

TEST(Planner, ByteBudgetExactOnUnitGrid) {
  // A byte budget of at most kPlannerBins makes every bin one byte wide, so
  // the ceil rounding is exact and the DP must find the true optimum.
  Rng rng(47);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    const auto levels = small_levels(rng);
    const std::uint64_t budget = rng.uniform_u64(kPlannerBins + 1);
    double best = std::numeric_limits<double>::infinity();
    for_each_plan(levels, [&](const LoadPlan& p) {
      if (p.new_bytes <= budget) best = std::min(best, p.guaranteed_error);
    });
    const LoadPlan dp = plan_byte_budget(levels, budget);
    EXPECT_LE(dp.new_bytes, budget);
    EXPECT_DOUBLE_EQ(dp.guaranteed_error, best) << "byte budget " << budget;
  }
}

TEST(Planner, SingleLevelErrorBoundIsExact) {
  // One level has no other level to share the grid with: ceil(err / binw) is
  // within kPlannerBins exactly when err is within the budget, so the DP
  // fetches exactly what the cheapest admissible drop fetches.
  Rng rng(48);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    auto levels = small_levels(rng);
    levels.resize(1);
    const double budget = rng.uniform(0.01, 1.0) * (levels[0].err.back() + 0.01);
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for_each_plan(levels, [&](const LoadPlan& p) {
      if (p.guaranteed_error <= budget) best = std::min(best, p.new_bytes);
    });
    const LoadPlan dp = plan_error_bound(levels, budget);
    EXPECT_LE(dp.guaranteed_error, budget);
    EXPECT_EQ(dp.new_bytes, best) << "error budget " << budget;
  }
}

TEST(Planner, LooserErrorBudgetNeverFetchesMore) {
  // A wider budget widens every bin, so each level's cost in bins can only
  // fall and every plan admissible before stays admissible.
  Rng rng(49);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(trial);
    const auto levels = random_levels(rng, 1 + rng.uniform_u64(6));
    std::uint64_t prev = std::numeric_limits<std::uint64_t>::max();
    double prev_budget = 0.0;
    for (double budget = 1e-3; budget < 50.0; budget *= 1.7) {
      const LoadPlan plan = plan_error_bound(levels, budget);
      EXPECT_LE(plan.new_bytes, prev) << budget << " after " << prev_budget;
      prev = plan.new_bytes;
      prev_budget = budget;
    }
  }
}

TEST(Planner, ZeroByteBudgetFetchesNothing) {
  Rng rng(50);
  for (int trial = 0; trial < 50; ++trial) {
    const auto levels = small_levels(rng);
    const LoadPlan plan = plan_byte_budget(levels, 0);
    EXPECT_EQ(plan.new_bytes, 0u);
    for (std::size_t i = 0; i < levels.size(); ++i) {
      // Free planes (zero bytes) right below the resident block still lower
      // the error, so exactly those are used on top of the resident ones.
      const auto& l = levels[i];
      unsigned d = static_cast<unsigned>(l.plane_size.size()) - l.already_loaded;
      while (d > 0 && l.plane_size[d - 1] == 0) --d;
      EXPECT_EQ(plan.planes_to_use[i], l.plane_size.size() - d) << "level " << i;
    }
    EXPECT_DOUBLE_EQ(plan.guaranteed_error, plan_error(levels, plan));
  }
}

TEST(Planner, FullyResidentLevelsCostNothing) {
  // Everything resident: no plan can fetch a byte, and the only plan is to
  // use every plane, whatever the budget.
  Rng rng(51);
  for (int trial = 0; trial < 50; ++trial) {
    auto levels = random_levels(rng, 1 + rng.uniform_u64(6));
    for (auto& l : levels) l.already_loaded = static_cast<unsigned>(l.plane_size.size());
    for (const LoadPlan& plan : {plan_error_bound(levels, 0.0),
                                 plan_error_bound(levels, 1e9),
                                 plan_byte_budget(levels, 0),
                                 plan_byte_budget(levels, 1u << 30)}) {
      EXPECT_EQ(plan.new_bytes, 0u);
      EXPECT_EQ(plan.guaranteed_error, 0.0);
      for (std::size_t i = 0; i < levels.size(); ++i) {
        EXPECT_EQ(plan.planes_to_use[i], levels[i].plane_size.size());
      }
    }
  }
}

TEST(Planner, MalformedLevelsRejected) {
  const std::vector<std::vector<LevelPlanInput>> bad = {
      {make_level({10, 20}, {0.0, 1.0})},           // err one entry short
      {make_level({10}, {0.0, 1.0, 2.0})},          // err one entry long
      {make_level({10, 20}, {0.0, 1.0, 2.0}, 3)},  // more resident than stored
  };
  for (const auto& levels : bad) {
    EXPECT_THROW(plan_error_bound(levels, 1.0), std::invalid_argument);
    EXPECT_THROW(plan_byte_budget(levels, 100), std::invalid_argument);
  }
}

TEST(Planner, EmptyLevelListWorks) {
  std::vector<LevelPlanInput> levels;
  auto plan = plan_error_bound(levels, 1.0);
  EXPECT_TRUE(plan.planes_to_use.empty());
  EXPECT_EQ(plan.guaranteed_error, 0.0);
}

TEST(Planner, LevelWithNoPlanes) {
  auto levels = std::vector<LevelPlanInput>{make_level({}, {0.0})};
  auto plan = plan_error_bound(levels, 1.0);
  EXPECT_EQ(plan.planes_to_use[0], 0u);
  auto planb = plan_byte_budget(levels, 10);
  EXPECT_EQ(planb.planes_to_use[0], 0u);
}

TEST(Amplification, LinearIsRankTimes) {
  EXPECT_DOUBLE_EQ(level_amplification(InterpKind::kLinear, 3, 1), 3.0);
  EXPECT_DOUBLE_EQ(level_amplification(InterpKind::kLinear, 3, 5), 3.0);
}

TEST(Amplification, CubicRecurrence) {
  // g = (p^r - 1)/(p - 1), growth (p^r)^(l-1)
  const double p = 1.25, r = 3;
  const double pr = std::pow(p, r);
  const double g = (pr - 1) / (p - 1);
  EXPECT_NEAR(level_amplification(InterpKind::kCubic, 3, 1), g, 1e-12);
  EXPECT_NEAR(level_amplification(InterpKind::kCubic, 3, 4), g * pr * pr * pr,
              1e-9);
}

TEST(Amplification, RankOneIsPNormPower) {
  // One pass per level: g = 1, and each coarser level applies P once more.
  for (unsigned l = 1; l <= 8; ++l) {
    EXPECT_DOUBLE_EQ(level_amplification(InterpKind::kLinear, 1, l), 1.0);
    EXPECT_NEAR(level_amplification(InterpKind::kCubic, 1, l),
                std::pow(1.25, static_cast<double>(l - 1)), 1e-12);
  }
}

TEST(Amplification, NeverShrinksTowardCoarserLevels) {
  // Loss at a coarser level feeds more predictions, so it is never charged
  // less than loss at a finer one; cubic (p > 1) is charged strictly more,
  // and always at least linear's rank-fold charge.
  for (unsigned rank = 1; rank <= 4; ++rank) {
    for (unsigned l = 1; l < 12; ++l) {
      const double lin = level_amplification(InterpKind::kLinear, rank, l);
      const double cub = level_amplification(InterpKind::kCubic, rank, l);
      EXPECT_EQ(level_amplification(InterpKind::kLinear, rank, l + 1), lin);
      EXPECT_GT(level_amplification(InterpKind::kCubic, rank, l + 1), cub);
      EXPECT_GE(cub, lin) << "rank " << rank << " level " << l;
    }
  }
}

}  // namespace
}  // namespace ipcomp
