// Thin OpenMP helpers.
//
// All parallel loops in this repository go through parallel_for so that the
// code builds (serially) without OpenMP and so that grain-size policy lives in
// one place.  Loop bodies must be independent per index.
#pragma once

#include <cstddef>
#include <exception>

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

/// Runs `task` on the calling thread beside a loop over [begin, end): the
/// calling thread (the OpenMP master) runs task() while the rest of the team
/// takes fn(i) under a dynamic schedule, and the caller joins the loop once
/// task() returns.  For serial work that must stay on the calling thread —
/// e.g. filling a buffer that should come from the caller's malloc arena —
/// overlapped with independent per-index work.  Exceptions are captured as
/// in parallel_for_ex; the first one is rethrown after both sides finish.
/// Below `grain`, with one thread, without OpenMP, or inside a parallel
/// region it runs task() and then the loop serially.
template <typename Task, typename Fn>
void parallel_for_beside(Task&& task, std::size_t begin, std::size_t end,
                         Fn&& fn, std::size_t grain) {
  std::exception_ptr eptr = nullptr;
  Mutex mutex;  // guards eptr across the team
  auto guarded = [&](auto&& body) {
    try {
      body();
    } catch (...) {
      LockGuard lock(mutex);
      if (!eptr) eptr = std::current_exception();
    }
  };
  auto run_index = [&](std::size_t i) { guarded([&] { fn(i); }); };
  bool team = false;
#if defined(_OPENMP)
  team = end - begin >= grain && omp_get_max_threads() > 1 && !in_parallel();
  if (team) {
    const std::ptrdiff_t b = static_cast<std::ptrdiff_t>(begin);
    const std::ptrdiff_t e = static_cast<std::ptrdiff_t>(end);
#pragma omp parallel
    {
      if (omp_get_thread_num() == 0) guarded(task);
#pragma omp for schedule(dynamic, 1)
      for (std::ptrdiff_t i = b; i < e; ++i) {
        run_index(static_cast<std::size_t>(i));
      }
    }
  }
#else
  (void)grain;
#endif
  if (!team) {
    guarded(task);
    for (std::size_t i = begin; i < end; ++i) run_index(i);
  }
  if (eptr) std::rethrow_exception(eptr);
}

}  // namespace ipcomp
