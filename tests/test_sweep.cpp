#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "interp/sweep.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

using testutil::ScopedThreads;

constexpr int kSweepThreads[] = {1, 2, 8};

/// Reference: the sweep in pass order, one line at a time along each pass's
/// dimension (serial).  The plane-major sweep must match it bit for bit.
template <typename T, typename Visitor>
void line_major_sweep(T* data, const LevelStructure& ls, InterpKind kind,
                      Visitor&& visit) {
  const Dims& dims = ls.dims;
  const auto estrides = dims.strides();
  const unsigned rank = static_cast<unsigned>(dims.rank());
  const unsigned L = ls.num_levels;
  data[0] = visit(L - 1, 0, 0, static_cast<T>(0));
  for (unsigned l = L; l >= 1; --l) {
    for (const DimPass& p : ls.passes[l - 1]) {
      const unsigned t = p.dim;
      const std::size_t s = std::size_t{1} << (l - 1);
      const std::size_t n_t = dims[t];
      const std::size_t est = estrides[t];
      const std::size_t sst = s * est;
      const std::size_t s3 = 3 * sst;
      const std::size_t targets_per_line = p.count[t];
      std::size_t radix[kMaxRank] = {};
      std::size_t rstride[kMaxRank] = {};
      std::size_t n_lines = 1;
      unsigned n_digits = 0;
      for (unsigned j = 0; j < rank; ++j) {
        if (j == t) continue;
        std::size_t g = (j < t) ? s : 2 * s;
        radix[n_digits] = (dims[j] - 1) / g + 1;
        rstride[n_digits] = estrides[j] * g;
        n_lines *= radix[n_digits];
        ++n_digits;
      }
      for (std::size_t line = 0; line < n_lines; ++line) {
        std::size_t rem = line;
        std::size_t base = 0;
        for (unsigned d = n_digits; d-- > 0;) {
          base += (rem % radix[d]) * rstride[d];
          rem /= radix[d];
        }
        std::size_t slot = p.slot_offset + line * targets_per_line;
        std::size_t c = s;
        std::size_t idx = base + c * est;
        for (std::size_t k = 0; k < targets_per_line;
             ++k, c += 2 * s, idx += 2 * sst, ++slot) {
          T pred;
          if (kind == InterpKind::kCubic && c >= 3 * s && c + 3 * s < n_t) {
            pred = interp_cubic(data[idx - s3], data[idx - sst],
                                data[idx + sst], data[idx + s3]);
          } else if (c + s < n_t) {
            pred = interp_linear(data[idx - sst], data[idx + sst]);
          } else {
            pred = data[idx - sst];
          }
          data[idx] = visit(l - 1, slot, idx, pred);
        }
      }
    }
  }
}

class SweepShapes : public ::testing::TestWithParam<Dims> {};

TEST_P(SweepShapes, SlotsPartitionAllPoints) {
  const Dims dims = GetParam();
  auto ls = LevelStructure::analyze(dims);
  EXPECT_EQ(ls.total_count(), dims.count());
}

TEST_P(SweepShapes, EveryPointVisitedExactlyOnce) {
  const Dims dims = GetParam();
  auto ls = LevelStructure::analyze(dims);
  for (int threads : kSweepThreads) {
    SCOPED_TRACE(threads);
    ScopedThreads pin(threads);
    std::vector<int> visits(dims.count(), 0);
    std::vector<std::set<std::size_t>> slots(ls.num_levels);
    std::vector<double> data(dims.count(), 0.0);
    std::mutex m;
    interpolation_sweep(
        data.data(), ls, InterpKind::kLinear,
        [&](unsigned li, std::size_t slot, std::size_t idx, double) {
          std::lock_guard<std::mutex> lock(m);
          ++visits[idx];
          EXPECT_TRUE(slots[li].insert(slot).second)
              << "duplicate slot " << slot << " level " << li;
          return 0.0;
        });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i], 1) << "idx " << i;
    }
    for (unsigned li = 0; li < ls.num_levels; ++li) {
      EXPECT_EQ(slots[li].size(), ls.level_count[li]);
      if (!slots[li].empty()) {
        EXPECT_EQ(*slots[li].rbegin(), ls.level_count[li] - 1);
      }
    }
  }
}

TEST_P(SweepShapes, IdentityVisitorReproducesData) {
  // A visitor that quantizes with zero error (returns original) must leave
  // the array exactly equal to the input when run "in place".
  const Dims dims = GetParam();
  auto ls = LevelStructure::analyze(dims);
  Rng rng(99);
  std::vector<double> original(dims.count());
  for (auto& v : original) v = rng.uniform(-5, 5);
  std::vector<double> work = original;
  interpolation_sweep(work.data(), ls, InterpKind::kCubic,
                      [&](unsigned, std::size_t, std::size_t idx, double) {
                        return original[idx];
                      });
  EXPECT_EQ(work, original);
}

TEST_P(SweepShapes, PredictionsUseOnlyKnownPoints) {
  // Fill with NaN; a prediction that touches an unvisited point propagates
  // NaN into `pred`, which the visitor detects.
  const Dims dims = GetParam();
  auto ls = LevelStructure::analyze(dims);
  for (int threads : kSweepThreads) {
    SCOPED_TRACE(threads);
    ScopedThreads pin(threads);
    std::vector<double> data(dims.count(),
                             std::numeric_limits<double>::quiet_NaN());
    std::atomic<int> bad{0};
    interpolation_sweep(data.data(), ls, InterpKind::kCubic,
                        [&](unsigned, std::size_t, std::size_t, double pred) {
                          if (std::isnan(pred)) ++bad;
                          return 1.0;  // mark as known
                        });
    EXPECT_EQ(bad.load(), 0);
  }
}

TEST_P(SweepShapes, MatchesLineMajorReference) {
  // Same visitor, same inputs: the plane-major sweep must write the same
  // values and hand every point the same (level, slot) as pass order.
  const Dims dims = GetParam();
  auto ls = LevelStructure::analyze(dims);
  Rng rng(7);
  std::vector<double> original(dims.count());
  for (auto& v : original) v = rng.uniform(-5, 5);
  for (InterpKind kind : {InterpKind::kLinear, InterpKind::kCubic}) {
    std::vector<double> want(dims.count());
    std::vector<std::size_t> want_slot(dims.count());
    line_major_sweep(want.data(), ls, kind,
                     [&](unsigned li, std::size_t slot, std::size_t idx,
                         double pred) {
                       want_slot[idx] = slot * 8 + li;
                       return 0.75 * pred + original[idx];
                     });
    for (int threads : kSweepThreads) {
      SCOPED_TRACE(threads);
      ScopedThreads pin(threads);
      std::vector<double> got(dims.count());
      std::vector<std::size_t> got_slot(dims.count());
      interpolation_sweep(got.data(), ls, kind,
                          [&](unsigned li, std::size_t slot, std::size_t idx,
                              double pred) {
                            got_slot[idx] = slot * 8 + li;
                            return 0.75 * pred + original[idx];
                          });
      EXPECT_EQ(got_slot, want_slot) << to_string(kind);
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               got.size() * sizeof(double)))
          << to_string(kind);
    }
  }
}

TEST(Sweep, MatchesLineMajorReferenceOnRandomShapes) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t rank = 1 + rng.next_u64() % kMaxRank;
    std::size_t extents[kMaxRank];
    const std::size_t cap = rank == 1 ? 3000 : rank == 2 ? 90 : 24;
    for (std::size_t j = 0; j < rank; ++j) {
      extents[j] = 1 + rng.next_u64() % cap;
    }
    const Dims dims = Dims::of_rank(rank, extents);
    SCOPED_TRACE(dims.to_string());
    const auto ls = LevelStructure::analyze(dims);
    std::vector<float> original(dims.count());
    for (auto& v : original) v = static_cast<float>(rng.uniform(-5, 5));
    const auto kind =
        trial % 2 == 0 ? InterpKind::kCubic : InterpKind::kLinear;
    std::vector<float> want(dims.count()), got(dims.count());
    std::vector<std::size_t> want_slot(dims.count()), got_slot(dims.count());
    line_major_sweep(want.data(), ls, kind,
                     [&](unsigned li, std::size_t slot, std::size_t idx,
                         float pred) {
                       want_slot[idx] = slot * 8 + li;
                       return pred * 0.5f + original[idx];
                     });
    interpolation_sweep(got.data(), ls, kind,
                        [&](unsigned li, std::size_t slot, std::size_t idx,
                            float pred) {
                          got_slot[idx] = slot * 8 + li;
                          return pred * 0.5f + original[idx];
                        });
    EXPECT_EQ(got_slot, want_slot);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(float)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SweepShapes,
    ::testing::Values(Dims{1}, Dims{2}, Dims{3}, Dims{17}, Dims{64}, Dims{100},
                      Dims{1, 1}, Dims{5, 5}, Dims{16, 16}, Dims{33, 7},
                      Dims{100, 3}, Dims{2, 128}, Dims{9, 9, 9}, Dims{16, 16, 16},
                      Dims{7, 33, 5}, Dims{24, 13, 31}, Dims{3, 4, 5, 6},
                      Dims{17, 2, 9, 4}, Dims{100003}, Dims{1, 37, 20},
                      Dims{1, 1, 70}, Dims{300, 300}, Dims{40, 48, 50}),
    [](const auto& info) {
      std::string s = info.param.to_string();
      for (auto& c : s) {
        if (c == 'x') c = '_';
      }
      return s;
    });

TEST(Sweep, LevelCountMatchesLog2) {
  EXPECT_EQ(LevelStructure::analyze(Dims{1}).num_levels, 1u);
  EXPECT_EQ(LevelStructure::analyze(Dims{2}).num_levels, 1u);
  EXPECT_EQ(LevelStructure::analyze(Dims{3}).num_levels, 2u);
  EXPECT_EQ(LevelStructure::analyze(Dims{256}).num_levels, 8u);
  EXPECT_EQ(LevelStructure::analyze(Dims{257}).num_levels, 9u);
  EXPECT_EQ(LevelStructure::analyze(Dims{100, 500, 500}).num_levels, 9u);
}

TEST(Sweep, AnchorIsFirstSlotOfTopLevel) {
  auto ls = LevelStructure::analyze(Dims{16, 16});
  std::vector<double> data(256, 0.0);
  bool anchor_seen = false;
  interpolation_sweep(data.data(), ls, InterpKind::kLinear,
                      [&](unsigned li, std::size_t slot, std::size_t idx, double pred) {
                        if (idx == 0) {
                          anchor_seen = true;
                          EXPECT_EQ(li, ls.num_levels - 1);
                          EXPECT_EQ(slot, 0u);
                          EXPECT_EQ(pred, 0.0);
                        }
                        return 1.0;
                      });
  EXPECT_TRUE(anchor_seen);
}

TEST(Sweep, LinearPredictionValues) {
  // 1-D size 5: levels: L=3. Check the midpoint prediction is the average of
  // its stride-distant neighbours once those are known.
  Dims dims{5};
  auto ls = LevelStructure::analyze(dims);
  std::vector<double> data = {0, 0, 0, 0, 0};
  std::vector<double> truth = {10, 11, 12, 13, 14};
  std::vector<double> preds(5, -1);
  interpolation_sweep(data.data(), ls, InterpKind::kLinear,
                      [&](unsigned, std::size_t, std::size_t idx, double pred) {
                        preds[idx] = pred;
                        return truth[idx];
                      });
  // idx 0: anchor (pred 0); idx 4: predicted from idx 0 at level 3 (copy,
  // since idx 8 out of bounds); idx 2: average of 0 and 4; idx 1: average of
  // 0 and 2; idx 3: average of 2 and 4.
  EXPECT_EQ(preds[0], 0.0);
  EXPECT_EQ(preds[4], 10.0);
  EXPECT_EQ(preds[2], (10.0 + 14.0) / 2);
  EXPECT_EQ(preds[1], (10.0 + 12.0) / 2);
  EXPECT_EQ(preds[3], (12.0 + 14.0) / 2);
}

TEST(Sweep, CubicKernelUsedInInterior) {
  // 1-D size 9, finest level: target 4 has neighbours 1,3,5,7 at stride 1
  // ... i.e. cubic needs c>=3s and c+3s<n: c=3,s=1 -> needs idx 6 <= 8 ok.
  Dims dims{9};
  auto ls = LevelStructure::analyze(dims);
  std::vector<double> truth(9);
  for (int i = 0; i < 9; ++i) truth[i] = i * i;  // quadratic: cubic is exact
  std::vector<double> data(9, 0);
  std::vector<double> preds(9, -1);
  interpolation_sweep(data.data(), ls, InterpKind::kCubic,
                      [&](unsigned, std::size_t, std::size_t idx, double pred) {
                        preds[idx] = pred;
                        return truth[idx];
                      });
  // Cubic interpolation reproduces quadratics exactly at interior points
  // where all four sources exist: target 3 (s=1) uses 0,2,4,6... wait c=3:
  // c-3s=0, c+3s=6 < 9: cubic.  (-0 + 9*4 + 9*16 - 36)/16 = 144/16 = 9.
  EXPECT_DOUBLE_EQ(preds[3], 9.0);
  EXPECT_DOUBLE_EQ(preds[5], 25.0);
}

TEST(Sweep, RejectsNothingForMaxRankShapes) {
  auto ls = LevelStructure::analyze(Dims{4, 4, 4, 4});
  EXPECT_EQ(ls.total_count(), 256u);
}

}  // namespace
}  // namespace ipcomp
