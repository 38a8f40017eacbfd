// Thin OpenMP helpers.
//
// All parallel loops in this repository go through parallel_for so that the
// code builds (serially) without OpenMP and so that grain-size policy lives in
// one place.  Loop bodies must be independent per index.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "util/sync.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace ipcomp {

/// Number of worker threads the runtime will use.
inline int thread_count() {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// True when called from inside an active parallel region.  Used as a
/// nested-parallelism guard: parallel_for runs serially in that case, so an
/// outer loop (e.g. across compression blocks) keeps exclusive use of the
/// thread pool instead of oversubscribing it with nested teams.
inline bool in_parallel() {
#if defined(_OPENMP)
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

/// Parallel loop over [begin, end); falls back to serial when the trip count
/// is below `grain` (parallelizing tiny loops costs more than it saves) or
/// when already inside a parallel region (see in_parallel()).
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                  std::size_t grain = 1024) {
#if defined(_OPENMP)
  if (end - begin >= grain && omp_get_max_threads() > 1 && !in_parallel()) {
    const std::ptrdiff_t b = static_cast<std::ptrdiff_t>(begin);
    const std::ptrdiff_t e = static_cast<std::ptrdiff_t>(end);
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = b; i < e; ++i) {
      fn(static_cast<std::size_t>(i));
    }
    return;
  }
#else
  (void)grain;
#endif
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

/// Chunked parallel loop: fn(lo, hi) over the fixed ranges
/// [begin + c*chunk, begin + (c+1)*chunk) ∩ [begin, end).  Chunk boundaries
/// never depend on the thread count, so chunk-local reductions (OR masks,
/// per-depth maxima) merge into thread-count-independent results.  The
/// word-parallel bitplane engine runs its tile passes through this: one
/// chunk is enough work to amortize a fork, so the per-chunk grain is 1.
template <typename Fn>
void parallel_chunks(std::size_t begin, std::size_t end, std::size_t chunk,
                     Fn&& fn) {
  if (end <= begin) return;
  const std::size_t n_chunks = (end - begin + chunk - 1) / chunk;
  parallel_for(0, n_chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk;
    fn(lo, lo + chunk < end ? lo + chunk : end);
  }, /*grain=*/1);
}

/// parallel_for for bodies that may throw (e.g. decoding untrusted input):
/// exceptions must not escape an OpenMP region, so the first one thrown is
/// captured and rethrown on the calling thread after the loop completes.
template <typename Fn>
void parallel_for_ex(std::size_t begin, std::size_t end, Fn&& fn,
                     std::size_t grain = 1024) {
  std::exception_ptr eptr = nullptr;
  Mutex mutex;  // guards eptr across the loop's worker threads
  parallel_for(begin, end, [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      LockGuard lock(mutex);
      if (!eptr) eptr = std::current_exception();
    }
  }, grain);
  if (eptr) std::rethrow_exception(eptr);
}

/// Shared state of one parallel_slab_pipeline run.  Each of the `team`
/// threads calls work(thread, team) once, the calling thread as thread 0;
/// the waits are plain atomics, so any set of threads can drive a run (the
/// tests use std::thread, which ThreadSanitizer sees through).  No wait
/// depends on a thread that is itself waiting: touches never wait, the
/// caller waits only for touches, and a rebuild waits for the caller and
/// for a running decode.
template <typename Fill, typename Touch, typename SlabOf, typename Decode,
          typename Rebuild>
class SlabPipeline {
 public:
  SlabPipeline(std::size_t n_slabs, Fill& fill, Touch& touch,
               std::size_t n_items, SlabOf& slab_of, Decode& decode,
               Rebuild& rebuild)
      : n_slabs_(n_slabs),
        n_items_(n_items),
        fill_(fill),
        touch_(touch),
        slab_of_(slab_of),
        decode_(decode),
        rebuild_(rebuild),
        touched_(n_slabs),
        decoded_(n_items) {}

  /// The caller fills and then rebuilds; the rest of the team touches,
  /// decodes and rebuilds.  Keeping decode off the caller keeps its
  /// allocations out of the calling thread's malloc arena (decoding there
  /// too raised the retrieve benchmark's peak RSS by 2-3%); alone, the
  /// caller runs every step.
  void work(std::size_t thread, std::size_t team) {
    if (thread == 0) {
      guarded([&] { fill_slabs(); });
    } else {
      touch_slabs();
    }
    if (thread != 0 || team == 1) decode_items();
    rebuild_items();
  }

  /// Rethrows the first exception any step threw, once every thread's
  /// work() has returned.
  void rethrow() {
    LockGuard lock(mutex_);
    if (eptr_) std::rethrow_exception(eptr_);
  }

 private:
  /// The caller fills the slabs in order.  Slab 0 is always its own; a later
  /// slab is too unless a team thread claimed it first, and then the caller
  /// waits for that thread's touch to end before filling over it.  Touches
  /// mark their slab even when they throw, so this wait always ends.
  void fill_slabs() {
    for (std::size_t s = 0; s < n_slabs_; ++s) {
      std::size_t unclaimed = s;
      if (s > 0 && !frontier_.compare_exchange_strong(unclaimed, s + 1)) {
        while (!touched_[s].load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
      fill_(s);
      published_.store(s + 1, std::memory_order_release);
    }
  }

  /// Each slab value below n_slabs goes to exactly one claimer: the caller's
  /// compare-exchange or one team thread's fetch_add.
  void touch_slabs() {
    for (std::size_t s = 0; (s = frontier_.fetch_add(1)) < n_slabs_;) {
      guarded([&] { touch_(s); });
      touched_[s].store(true, std::memory_order_release);
    }
  }

  void decode_items() {
    for (std::size_t i = 0;
         !failed() && (i = next_decode_.fetch_add(1)) < n_items_;) {
      if (guarded([&] { decode_(i); })) {
        decoded_[i].store(true, std::memory_order_release);
      }
    }
  }

  /// Items are claimed in order, so with a nondecreasing slab_of the first
  /// unclaimed item is always the next one to become ready.
  void rebuild_items() {
    for (std::size_t i = 0;
         !failed() && (i = next_rebuild_.fetch_add(1)) < n_items_;) {
      const std::size_t slab = slab_of_(i);
      while (!decoded_[i].load(std::memory_order_acquire) ||
             published_.load(std::memory_order_acquire) <= slab) {
        if (failed()) return;  // the step this waits for threw
        std::this_thread::yield();
      }
      guarded([&] { rebuild_(i); });
    }
  }

  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Runs body(); on a throw records the first exception and flags the run
  /// failed, so waiters give up.  Returns whether body() completed.
  template <typename Body>
  bool guarded(Body&& body) {
    try {
      body();
      return true;
    } catch (...) {
      LockGuard lock(mutex_);
      if (!eptr_) eptr_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
      return false;
    }
  }

  const std::size_t n_slabs_, n_items_;
  Fill& fill_;
  Touch& touch_;
  SlabOf& slab_of_;
  Decode& decode_;
  Rebuild& rebuild_;
  std::atomic<std::size_t> frontier_{1};  // next slab a toucher may claim
  std::atomic<std::size_t> published_{0};  // slabs [0, published_) filled
  std::atomic<std::size_t> next_decode_{0}, next_rebuild_{0};
  std::atomic<bool> failed_{false};
  std::vector<std::atomic<bool>> touched_, decoded_;
  Mutex mutex_;
  std::exception_ptr eptr_ IPCOMP_GUARDED_BY(mutex_);
};

/// Fills a buffer slab by slab on the calling thread while the rest of the
/// OpenMP team prepares items that write into it.
///   * fill(s) runs on the calling thread for s = 0 .. n_slabs-1 in order;
///     when it returns, slab s is published.
///   * touch(s) runs on a team thread for slabs the caller has not reached
///     yet (never slab 0), at most once each, and always returns before
///     fill(s) starts: a toucher pre-faults pages the caller then fills fast.
///   * decode(i) runs once per item in [0, n_items) on a team thread (on
///     the calling thread only when it is alone).
///   * rebuild(i) runs once per item on any thread, after decode(i) and after
///     fill(slab_of(i)) returned.  slab_of should be nondecreasing in i.
/// The first exception any step throws is rethrown after every thread
/// finished; decode, rebuild and waits stop early, but the caller still
/// fills every slab unless fill itself throws.  With one thread, without
/// OpenMP, or inside a parallel region the calling thread runs the same
/// steps alone: every fill, then every decode, then every rebuild.
template <typename Fill, typename Touch, typename SlabOf, typename Decode,
          typename Rebuild>
void parallel_slab_pipeline(std::size_t n_slabs, Fill&& fill, Touch&& touch,
                            std::size_t n_items, SlabOf&& slab_of,
                            Decode&& decode, Rebuild&& rebuild) {
  SlabPipeline pipe(n_slabs, fill, touch, n_items, slab_of, decode, rebuild);
#if defined(_OPENMP)
  if (omp_get_max_threads() > 1 && !in_parallel()) {
#pragma omp parallel
    pipe.work(static_cast<std::size_t>(omp_get_thread_num()),
              static_cast<std::size_t>(omp_get_num_threads()));
    pipe.rethrow();
    return;
  }
#endif
  pipe.work(/*thread=*/0, /*team=*/1);
  pipe.rethrow();
}

}  // namespace ipcomp
