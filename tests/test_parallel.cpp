// util/parallel.hpp: parallel_slab_pipeline, the caller's slab-by-slab fill
// beside the team's touch, decode and rebuild.  Under every team size the
// caller fills each slab once and in order, a touched slab is never written
// by the touch and the fill at once, every item decodes (on the team when
// there is one) and rebuilds exactly once and rebuilds only after its slab
// was filled, and an exception from
// any step surfaces only after every thread finished, with no waiter hung.
//
// The runs are driven both through the OpenMP entry point and from plain
// std::threads calling SlabPipeline::work(), which ThreadSanitizer instruments
// (the tsan build has OpenMP off).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "test_util.hpp"
#include "util/parallel.hpp"

namespace ipcomp {
namespace {

using testutil::ScopedThreads;

constexpr std::size_t kSlabs = 9;
constexpr std::size_t kItemsPerSlab = 5;
constexpr std::size_t kItems = kSlabs * kItemsPerSlab;
constexpr std::size_t kSlabElems = 4096 + 7;  // slabs straddle pages
constexpr std::size_t kElems = kSlabs * kSlabElems - 100;  // partial last slab

/// One pipeline run over a real buffer, shaped like the reader's first
/// execute(): fill grows a reserved vector slab by slab, touch zeroes a
/// slab's storage past size(), and rebuild writes one value per item into
/// its slab.  Every step records what it saw, so a test can check order.
struct Recorder {
  std::vector<double> buf;
  double* out = nullptr;
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> fill_off_caller{false};
  std::atomic<bool> fill_out_of_order{false};
  std::atomic<bool> touch_after_fill{false};
  std::atomic<bool> fill_during_touch{false};
  std::atomic<bool> touch_of_slab0{false};
  std::atomic<bool> rebuild_too_early{false};
  std::atomic<bool> decode_on_caller{false};
  std::vector<std::atomic<int>> filled, touches, touched, decodes, rebuilds;
  std::size_t next_fill = 0;  // caller-only
  std::size_t fill_throw_at = kSlabs;
  std::size_t decode_throw_at = kItems;
  std::chrono::microseconds fill_delay{0};
  std::chrono::microseconds touch_delay{0};

  Recorder()
      : filled(kSlabs),
        touches(kSlabs),
        touched(kSlabs),
        decodes(kItems),
        rebuilds(kItems) {
    buf.reserve(kElems);
    out = buf.data();
  }

  static std::size_t slab_end(std::size_t s) {
    return std::min(kElems, (s + 1) * kSlabElems);
  }

  auto fill() {
    return [this](std::size_t s) {
      if (std::this_thread::get_id() != caller) fill_off_caller = true;
      if (s != next_fill++) fill_out_of_order = true;
      if (s == fill_throw_at) throw std::runtime_error("fill");
      if (touches[s].load() != touched[s].load()) fill_during_touch = true;
      std::this_thread::sleep_for(fill_delay);
      buf.resize(slab_end(s));
      filled[s].store(1, std::memory_order_release);
    };
  }
  auto touch() {
    return [this](std::size_t s) {
      if (s == 0) touch_of_slab0 = true;
      if (filled[s].load(std::memory_order_acquire)) touch_after_fill = true;
      touches[s].fetch_add(1);
      std::this_thread::sleep_for(touch_delay);
      std::fill(out + s * kSlabElems, out + slab_end(s), 0.0);
      touched[s].fetch_add(1);
    };
  }
  static auto slab_of() {
    return [](std::size_t i) { return i / kItemsPerSlab; };
  }
  auto decode() {
    return [this](std::size_t i) {
      if (std::this_thread::get_id() == caller) decode_on_caller = true;
      decodes[i].fetch_add(1);
      if (i == decode_throw_at) throw std::runtime_error("decode");
    };
  }
  auto rebuild() {
    return [this](std::size_t i) {
      const std::size_t s = i / kItemsPerSlab;
      if (!filled[s].load(std::memory_order_acquire) ||
          decodes[i].load() != 1) {
        rebuild_too_early = true;
      }
      rebuilds[i].fetch_add(1);
      out[s * kSlabElems + i % kItemsPerSlab] = static_cast<double>(i + 1);
    };
  }

  /// Every slab filled in order on the caller, every item rebuilt once.
  void expect_complete() const {
    EXPECT_FALSE(fill_off_caller.load());
    EXPECT_FALSE(fill_out_of_order.load());
    EXPECT_FALSE(touch_after_fill.load());
    EXPECT_FALSE(fill_during_touch.load());
    EXPECT_FALSE(touch_of_slab0.load());
    EXPECT_FALSE(rebuild_too_early.load());
    ASSERT_EQ(buf.size(), kElems);
    for (std::size_t s = 0; s < kSlabs; ++s) {
      EXPECT_EQ(filled[s].load(), 1) << s;
      EXPECT_LE(touches[s].load(), 1) << s;
    }
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(decodes[i].load(), 1) << i;
      EXPECT_EQ(rebuilds[i].load(), 1) << i;
    }
    for (std::size_t k = 0; k < kElems; ++k) {
      const std::size_t s = k / kSlabElems, r = k % kSlabElems;
      const double want =
          r < kItemsPerSlab ? static_cast<double>(s * kItemsPerSlab + r + 1)
                            : 0.0;
      if (std::memcmp(&buf[k], &want, sizeof want) != 0) {
        FAIL() << "element " << k;
      }
    }
  }
};

/// Runs one pipeline on the calling thread plus `threads - 1` std::threads.
void run_on_threads(Recorder& r, int threads) {
  auto fill = r.fill();
  auto touch = r.touch();
  auto slab_of = Recorder::slab_of();
  auto decode = r.decode();
  auto rebuild = r.rebuild();
  SlabPipeline pipe(kSlabs, fill, touch, kItems, slab_of, decode, rebuild);
  const auto n = static_cast<std::size_t>(threads);
  std::vector<std::thread> team;
  for (std::size_t t = 1; t < n; ++t) {
    team.emplace_back([&pipe, t, n] { pipe.work(t, n); });
  }
  pipe.work(0, n);
  for (std::thread& t : team) t.join();
  pipe.rethrow();
}

/// The same run through the OpenMP entry point at `threads` threads.
void run_parallel(Recorder& r, int threads) {
  ScopedThreads scoped(threads);
  parallel_slab_pipeline(kSlabs, r.fill(), r.touch(), kItems,
                         Recorder::slab_of(), r.decode(), r.rebuild());
}

class SlabPipelineThreads : public ::testing::TestWithParam<int> {};

TEST_P(SlabPipelineThreads, EveryItemRebuiltOnceAfterItsSlab) {
  Recorder plain;
  run_on_threads(plain, GetParam());
  plain.expect_complete();
  // Decoding stays on the team whenever there is one.
  EXPECT_EQ(plain.decode_on_caller.load(), GetParam() == 1);
  Recorder omp;
  run_parallel(omp, GetParam());
  omp.expect_complete();
}

TEST_P(SlabPipelineThreads, SlowFillLetsTheTeamTouchAhead) {
  Recorder r;
  r.fill_delay = std::chrono::microseconds(2000);
  run_on_threads(r, GetParam());
  r.expect_complete();
  std::size_t touched = 0;
  for (std::size_t s = 0; s < kSlabs; ++s) touched += r.touches[s].load();
  if (GetParam() > 1) {
    EXPECT_GT(touched, 0u);
  } else {
    EXPECT_EQ(touched, 0u);
  }
}

TEST_P(SlabPipelineThreads, SlowTouchHoldsTheFill) {
  Recorder r;
  r.touch_delay = std::chrono::microseconds(3000);
  run_on_threads(r, GetParam());
  r.expect_complete();
}

/// Runs `run` expecting it to rethrow `what`.
template <typename Run>
void expect_rethrow(Run&& run, const char* what) {
  try {
    run();
    FAIL() << what << " exception swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), what);
  }
}

TEST_P(SlabPipelineThreads, FillThrowRethrownWithoutHang) {
  for (std::size_t at : {std::size_t{0}, std::size_t{4}, kSlabs - 1}) {
    Recorder plain;
    plain.fill_throw_at = at;
    expect_rethrow([&] { run_on_threads(plain, GetParam()); }, "fill");
    Recorder omp;
    omp.fill_throw_at = at;
    expect_rethrow([&] { run_parallel(omp, GetParam()); }, "fill");
    for (const Recorder* r : {&plain, &omp}) {
      // Nothing rebuilds over a slab that was never filled.
      EXPECT_FALSE(r->rebuild_too_early.load()) << at;
      for (std::size_t i = at * kItemsPerSlab; i < kItems; ++i) {
        EXPECT_EQ(r->rebuilds[i].load(), 0) << at << " " << i;
      }
    }
  }
}

TEST_P(SlabPipelineThreads, DecodeThrowRethrownWithoutHang) {
  for (std::size_t at : {std::size_t{0}, std::size_t{17}, kItems - 1}) {
    Recorder plain;
    plain.decode_throw_at = at;
    expect_rethrow([&] { run_on_threads(plain, GetParam()); }, "decode");
    Recorder omp;
    omp.decode_throw_at = at;
    expect_rethrow([&] { run_parallel(omp, GetParam()); }, "decode");
    for (const Recorder* r : {&plain, &omp}) {
      EXPECT_EQ(r->rebuilds[at].load(), 0) << at;
      // A decode failure stops no fill: the buffer still ends full size.
      EXPECT_EQ(r->buf.size(), kElems) << at;
      EXPECT_FALSE(r->fill_out_of_order.load()) << at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Parallel, SlabPipelineThreads,
                         ::testing::Values(1, 2, 8));

TEST(Parallel, SlabPipelineSerialInsideParallelRegion) {
  ScopedThreads threads(4);
  constexpr std::size_t kOuter = 4;
  std::vector<std::thread::id> outer_threads(kOuter);
  std::vector<std::vector<std::thread::id>> step_threads(kOuter);
  parallel_for(0, kOuter, [&](std::size_t o) {
    outer_threads[o] = std::this_thread::get_id();
    auto log = [&] { step_threads[o].push_back(std::this_thread::get_id()); };
    parallel_slab_pipeline(
        3, [&](std::size_t) { log(); }, [&](std::size_t) { log(); }, 4,
        [](std::size_t i) { return i / 2; }, [&](std::size_t) { log(); },
        [&](std::size_t) { log(); });
  }, /*grain=*/1);
  for (std::size_t o = 0; o < kOuter; ++o) {
    // 3 fills + 4 decodes + 4 rebuilds, no touch, all on the outer thread.
    ASSERT_EQ(step_threads[o].size(), 11u) << o;
    for (const auto& id : step_threads[o]) EXPECT_EQ(id, outer_threads[o]);
  }
}

}  // namespace
}  // namespace ipcomp
