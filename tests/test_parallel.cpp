// util/parallel.hpp: parallel_for_beside, the calling-thread task beside a
// team loop.  Under every thread count the task runs once on the calling
// thread, every index runs exactly once, and an exception from either side
// surfaces only after both sides finished.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "test_util.hpp"
#include "util/parallel.hpp"

namespace ipcomp {
namespace {

using testutil::ScopedThreads;

constexpr std::size_t kN = 257;

class BesideThreads : public ::testing::TestWithParam<int> {};

TEST_P(BesideThreads, TaskOnCallerEveryIndexOnce) {
  ScopedThreads threads(GetParam());
  const auto caller = std::this_thread::get_id();
  int task_runs = 0;
  std::thread::id task_thread;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for_beside(
      [&] {
        ++task_runs;
        task_thread = std::this_thread::get_id();
      },
      0, kN, [&](std::size_t i) { visits[i].fetch_add(1); }, /*grain=*/2);
  EXPECT_EQ(task_runs, 1);
  EXPECT_EQ(task_thread, caller);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST_P(BesideThreads, TaskThrowRethrownAfterLoop) {
  ScopedThreads threads(GetParam());
  std::atomic<std::size_t> ran{0};
  try {
    parallel_for_beside([] { throw std::runtime_error("task"); }, 0, kN,
                        [&](std::size_t) { ran.fetch_add(1); }, /*grain=*/2);
    FAIL() << "task exception swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task");
  }
  EXPECT_EQ(ran.load(), kN);
}

TEST_P(BesideThreads, BodyThrowRethrownAfterTask) {
  ScopedThreads threads(GetParam());
  std::atomic<bool> task_done{false};
  std::atomic<std::size_t> ran{0};
  try {
    parallel_for_beside(
        [&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          task_done = true;
        },
        0, kN,
        [&](std::size_t i) {
          ran.fetch_add(1);
          if (i == 7) throw std::runtime_error("body");
        },
        /*grain=*/2);
    FAIL() << "body exception swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "body");
  }
  EXPECT_TRUE(task_done.load());
  EXPECT_EQ(ran.load(), kN);
}

INSTANTIATE_TEST_SUITE_P(Parallel, BesideThreads,
                         ::testing::Values(1, 2, 4, 8));

/// Event log of one serial parallel_for_beside call: -1 for the task, the
/// index otherwise, each with the thread that ran it.
struct Log {
  std::vector<long> events;
  std::vector<std::thread::id> threads;
};

void run_logged(Log& log, std::size_t n, std::size_t grain) {
  parallel_for_beside(
      [&] {
        log.events.push_back(-1);
        log.threads.push_back(std::this_thread::get_id());
      },
      0, n,
      [&](std::size_t i) {
        log.events.push_back(static_cast<long>(i));
        log.threads.push_back(std::this_thread::get_id());
      },
      grain);
}

void expect_serial(const Log& log, std::size_t n, std::thread::id caller) {
  ASSERT_EQ(log.events.size(), n + 1);
  for (std::size_t k = 0; k <= n; ++k) {
    EXPECT_EQ(log.events[k], static_cast<long>(k) - 1);
    EXPECT_EQ(log.threads[k], caller);
  }
}

TEST(Parallel, BesideSerialBelowGrain) {
  ScopedThreads threads(4);
  Log log;
  run_logged(log, 3, /*grain=*/4);
  expect_serial(log, 3, std::this_thread::get_id());
}

TEST(Parallel, BesideSerialInsideParallelRegion) {
  ScopedThreads threads(4);
  constexpr std::size_t kOuter = 4;
  std::vector<Log> logs(kOuter);
  std::vector<std::thread::id> outer_threads(kOuter);
  parallel_for(0, kOuter, [&](std::size_t o) {
    outer_threads[o] = std::this_thread::get_id();
    run_logged(logs[o], 16, /*grain=*/1);
  }, /*grain=*/1);
  for (std::size_t o = 0; o < kOuter; ++o) {
    expect_serial(logs[o], 16, outer_threads[o]);
  }
}

}  // namespace
}  // namespace ipcomp
