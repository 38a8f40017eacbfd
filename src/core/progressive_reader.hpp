// Progressive retrieval (paper Algorithms 1 & 2 + §5 data loading).
//
// A ProgressiveReader owns the retrieval state for one archive: which planes
// of which levels are resident, the partial negabinary codes, and the current
// reconstruction.  Retrieval is an explicit plan/execute split:
//   * plan(Request) computes — without moving a payload byte — the minimum
//     set of additional segments (DP knapsack over the header's δy tables)
//     that meets the request's fidelity target, returning an inspectable
//     RetrievalPlan (ordered segment list, predicted bytes, predicted
//     guaranteed error, per-level plane targets);
//   * execute(plan) fetches exactly the planned segments through a single
//     SegmentSource::read_many call (FileSource coalesces adjacent ranges
//     into bulk reads) and hands the new bits to the archive's
//     ProgressiveBackend: every block that received segments is rebuilt
//     from its accumulated partial codes (Algorithm 1 on first touch,
//     Algorithm 2's refinement afterwards), so a stepwise retrieval ends
//     bitwise equal to a one-shot read of the same planes.
// retrieve(Request) is the one-call combinator (execute(plan(req))).  The
// legacy request_* spellings of the same thing were deprecated and have been
// removed; build a Request instead.
//
// Everything format- and transform-specific — code -> field reconstruction
// and the per-level loss amplification the planner prices with — lives in
// the backend (core/backend.hpp); this class owns the shared machinery:
// segment planning/fetching and byte accounting, base/plane decoding, the
// plane planner, and block scheduling.
//
// Block-decomposed (v2/v3) archives hold one independent code/outlier state
// per block, and residency (which planes each block holds) is tracked per
// block.  Every request plans over a set of blocks: the blocks intersecting
// its region box, or every block when it has none (a whole-field archive is
// one block).  The DP planner prices exactly the segments those blocks still
// miss — plane sizes summed and truncation losses maxed across them — so a
// region combines with any fidelity target (Request::full().within(lo, hi) is
// the full-fidelity special case); the planned blocks then decode and
// reconstruct concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/backend.hpp"
#include "core/blocks.hpp"
#include "core/header.hpp"
#include "core/request.hpp"
#include "io/archive.hpp"
#include "loader/optimizer.hpp"

namespace ipcomp {

/// Outcome of one retrieval request.
struct RetrievalStats {
  /// eb + Σ amplified truncation loss under the current plane set: the L∞
  /// error the reader guarantees for its current output over the request's
  /// blocks (the intersecting blocks of a region request, else all).
  double guaranteed_error = 0.0;
  /// Bytes fetched by this request (segments + first-touch header cost).
  /// The archive open cost (header + segment table, charged at reader
  /// construction) is attributed to the *first* executed request — even one
  /// that fetches no segments — so that Σ bytes_new over any request
  /// sequence, uniform and region-scoped alike, equals bytes_total.
  std::size_t bytes_new = 0;
  /// Cumulative bytes fetched from the source so far.
  std::size_t bytes_total = 0;
  /// Retrieved bits per value so far (bytes_total * 8 / n).
  double bitrate = 0.0;
};

/// Thread contract: externally-synchronized, with const-safe planning.
/// A reader is the single-owner retrieval state for one archive: execute()
/// and retrieve() advance the resident plane set, the epoch serial, and the
/// reconstruction, and must be serialized by the caller.  plan() and every
/// other const member are *pure* reads of that state — concurrent plan()
/// calls on one reader (admission control probing many requests at once) are
/// safe, return identical plans for identical requests, and never touch the
/// SegmentSource payload path (tests/test_concurrency.cpp pins this under
/// TSan).  Scaling to many concurrent clients means one reader per client
/// over per-client sources of one shared archive — the serve layer
/// (serve/archive_set.hpp) packages exactly that: per-client Sessions whose
/// SessionSources share one cache + pooled I/O tier.  A remote client
/// (net/client.hpp) is the same reader over a source primed from the wire;
/// the daemon it talks to holds no reader at all.
template <typename T>
class ProgressiveReader {
 public:
  explicit ProgressiveReader(SegmentSource& src);

  /// Compute what `req` would fetch, without any payload I/O: plan() touches
  /// only the parsed header and the segment-size index (both part of the
  /// open cost), so it is free to call for admission control, prefetch
  /// scheduling, or dry-run inspection.  The returned plan's bytes_new and
  /// guaranteed_error predictions are exact for the execute() that follows.
  /// Throws std::invalid_argument for bad region bounds, a NaN error bound
  /// or a non-finite bitrate; a bitrate whose budget reaches 2^64 bytes
  /// plans as unlimited.
  RetrievalPlan plan(const Request& req) const;

  /// Fetch the plan's segments — all of them through one bulk
  /// SegmentSource::read_many call — and fold them into the reconstruction.
  /// A plan is valid for one execution against the reader state it was
  /// computed from; executing a stale plan (the reader advanced since its
  /// plan() ran) throws std::logic_error.
  ///
  /// Blocks decode and reconstruct in parallel, and data() is the same for
  /// any thread count.  The first execute() allocates the field behind
  /// data() on the calling thread.  A buffer of 32 MiB or more is reserved
  /// and hinted for transparent huge pages before any page is touched (a
  /// no-op when THP is `never`); smaller ones may sit in malloc arena heaps
  /// and are not hinted.  In more than one block such a buffer is filled by
  /// a slab pipeline (a slab is one row of blocks along dimension 0): the
  /// caller value-initializes it slab by slab while the rest of the OpenMP
  /// team pre-touches slabs ahead of it, decodes every planned block and
  /// rebuilds each as soon as its slab is filled.  Every later execute()
  /// decodes each block's new planes and rebuilds that block from its
  /// accumulated codes; blocks that received nothing keep their values.
  RetrievalStats execute(const RetrievalPlan& plan);

  /// One-call retrieval: execute(plan(req)).  The Request factories cover
  /// every mode — Request::error_bound / bytes / bitrate / full, each
  /// optionally scoped with .within(lo, hi) — so this is the single entry
  /// point for callers that don't need to inspect the plan.
  RetrievalStats retrieve(const Request& req) { return execute(plan(req)); }

  /// Current state serial (plans record it; see RetrievalPlan::epoch).
  std::uint64_t epoch() const { return epoch_; }

  const std::vector<T>& data() const { return xhat_; }
  const Header& header() const { return header_; }
  const ProgressiveBackend& backend() const { return *backend_; }
  const BlockGrid& block_grid() const { return grid_; }
  std::size_t bytes_loaded() const { return src_.stats().bytes_read; }
  double compression_eb() const { return header_.eb; }
  /// Guaranteed L∞ error of data() over the whole field.
  double current_guaranteed_error() const;

 private:
  /// Per-block retrieval state: the backend-facing BlockCodes plus the
  /// reader's own bookkeeping.  A field compressed whole holds exactly one.
  struct BlockState {
    BlockCodes bc;
    std::vector<unsigned> planes_used;  // per level, from the top
    bool base_loaded = false;
    bool have_recon = false;
  };

  /// Raw (still compressed) segment bytes fetched for one block by the
  /// current request, in decode order; decoding runs in parallel per block.
  struct FetchedBlock {
    std::vector<Bytes> base;  // per level; empty when already resident
    bool has_base = false;
    Bytes aux;  // kSegAux payload, fetched with the base when present
    /// (level index, absolute plane position, payload), MSB-first per level.
    std::vector<std::tuple<unsigned, unsigned, Bytes>> planes;
  };

  void decode_base(std::size_t b, FetchedBlock& fetched);
  /// Code phase: deposit the block's fetched planes into its codes.  Never
  /// touches xhat_.
  void decode_planes(std::size_t b, FetchedBlock& fetched);
  /// Stats after a request over `blocks`: bytes since `before`, and the
  /// guarantee over those blocks.
  RetrievalStats finish_stats(std::size_t before,
                              const std::vector<std::uint32_t>& blocks);
  /// Plan-axis geometry and planner inputs over `blocks` only: per-level
  /// depths (max n_planes), the resident floor (min planes-from-top, counted
  /// on the axis), and LevelPlanInputs pricing exactly the segments those
  /// blocks still miss.
  void plan_axis(const std::vector<std::uint32_t>& blocks,
                 std::vector<unsigned>& depths, std::vector<unsigned>& floor,
                 std::vector<LevelPlanInput>& inputs) const;
  /// Guaranteed L∞ error over `blocks` from their individual resident plane
  /// counts; `axis_targets`/`depths` (optional, for plan-time prediction)
  /// raise each block to its planned target first.
  double guarantee(const std::vector<std::uint32_t>& blocks,
                   const std::vector<unsigned>* axis_targets,
                   const std::vector<unsigned>* depths) const;
  /// Append the not-yet-resident plane segments of block `b` needed to reach
  /// `axis[li]` planes-from-the-top of a plan axis `depths[li]` deep (see
  /// plan_axis), in fetch order (level-ascending, MSB-first within a level).
  void plan_block_planes(std::size_t b, const std::vector<unsigned>& axis,
                         const std::vector<unsigned>& depths,
                         std::vector<SegmentId>& out) const;
  /// Append block `b`'s base (+aux) segments when not yet resident.
  void plan_block_base(std::size_t b, std::vector<SegmentId>& out) const;

  // ---- retrieval state --------------------------------------------------
  // Everything below `src_` is the externally-synchronized mutable
  // state of the class contract above: written only by the constructor and
  // execute() (via decode_base / decode_planes), read by plan() and the
  // const accessors.  No member function writes any of it
  // from a const path — that is what keeps concurrent plan() calls pure.
  SegmentSource& src_;
  const ProgressiveBackend* backend_ = nullptr;
  /// Header/index bytes charged at construction, attributed to the first
  /// request so that bytes_new sums to bytes_total.
  std::size_t unattributed_open_cost_ = 0;
  /// State serial: bumped by every execute(); plans record it so execute()
  /// can reject plans computed against an older state.
  std::uint64_t epoch_ = 0;
  Header header_;
  BlockGrid grid_;
  unsigned n_levels_ = 0;  // max over blocks

  std::vector<BlockState> blocks_;
  std::vector<T> xhat_;
};

extern template class ProgressiveReader<float>;
extern template class ProgressiveReader<double>;

}  // namespace ipcomp
