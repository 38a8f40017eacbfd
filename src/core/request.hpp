// Unified retrieval requests and inspectable retrieval plans.
//
// A Request is one value expressing what a caller wants out of a progressive
// archive: a fidelity target (error bound, byte budget, bitrate, or full
// fidelity) plus an optional region box scoping the request to the blocks
// that intersect it.  This makes "this region at eb 1e-3" — previously
// inexpressible (the legacy region call was full-fidelity-only) — a
// first-class request.
//
// ProgressiveReader turns a Request into a RetrievalPlan *before any payload
// byte moves* (plan() touches only the header and the segment-size index,
// both part of the open cost).  The plan is fully inspectable — ordered
// segment list, predicted new bytes, predicted guaranteed error, per-level
// plane targets — so callers can do admission control, prefetch scheduling,
// or dry-run reporting, and tests can assert planner decisions without I/O.
// execute() then fetches exactly the planned segments through a single bulk
// SegmentSource::read_many call and folds them into the reconstruction.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "io/archive.hpp"
#include "util/dims.hpp"

namespace ipcomp {

/// Axis-aligned half-open box [lo, hi) in element coordinates; entries past
/// the archive's rank are ignored.
struct RegionBox {
  std::array<std::size_t, kMaxRank> lo{};
  std::array<std::size_t, kMaxRank> hi{};
};

/// One retrieval request: a fidelity target plus an optional region scope.
struct Request {
  /// Retrieve until the guaranteed L∞ error is <= target (targets below the
  /// compression eb retrieve everything).
  struct ErrorBound {
    double target = 0.0;
  };
  /// Retrieve at most `budget` additional bytes, minimizing error.
  struct ByteBudget {
    std::uint64_t budget = 0;
  };
  /// Keep the *cumulative* retrieved volume within bits_per_value * n / 8
  /// bytes, where n counts the whole field's elements (also under a region
  /// scope — the paper's fixed-bitrate mode is a whole-field budget).
  struct Bitrate {
    double bits_per_value = 0.0;
  };
  /// Retrieve every remaining plane (error <= compression eb).
  struct Full {};

  using Target = std::variant<Full, ErrorBound, ByteBudget, Bitrate>;

  Target target = Full{};
  /// When set, the request plans over — and its guarantee covers — only the
  /// blocks intersecting the box.  On a field compressed whole the one block
  /// spans the field, so a region request degenerates to uniform.
  std::optional<RegionBox> region;

  static Request error_bound(double target) {
    return {ErrorBound{target}, std::nullopt};
  }
  static Request bytes(std::uint64_t budget) {
    return {ByteBudget{budget}, std::nullopt};
  }
  static Request bitrate(double bits_per_value) {
    return {Bitrate{bits_per_value}, std::nullopt};
  }
  static Request full() { return {}; }

  /// Same request scoped to the half-open box [lo, hi).
  Request within(const std::array<std::size_t, kMaxRank>& lo,
                 const std::array<std::size_t, kMaxRank>& hi) const {
    Request r = *this;
    r.region = RegionBox{lo, hi};
    return r;
  }
};

/// Human-readable request summary ("error_bound 1e-3 within [0,0,0):[32,32,32)");
/// `rank` bounds how many region coordinates are printed.
std::string to_string(const Request& req, std::size_t rank = kMaxRank);

/// Human-readable segment id ("plane L2 k7 b3", "base L1 b0", "aux b2").
std::string to_string(const SegmentId& id);

/// What a Request will do, computed before any payload byte moves.
/// Produced by ProgressiveReader::plan(), consumed (once) by execute().
struct RetrievalPlan {
  /// The request this plan answers.
  Request request;
  /// Every segment execute() will fetch, in fetch order: all pending base
  /// (+aux) segments of the plan's blocks in block order, then plane segments
  /// per block, level-ascending and MSB-first within a level.
  std::vector<SegmentId> segments;
  /// Predicted bytes execute() will charge, including the archive open cost
  /// if this is the reader's first executed request.  Exact: equals the
  /// resulting RetrievalStats.bytes_new.
  std::uint64_t bytes_new = 0;
  /// Predicted guaranteed L∞ error over `blocks` after execution.  Exact:
  /// equals RetrievalStats.guaranteed_error.
  double guaranteed_error = 0.0;
  /// Per level: planes-from-the-top target on the axis of the in-scope
  /// blocks, which counts from the top of the deepest of them.
  std::vector<unsigned> plane_targets;
  /// Block ordinals in scope — those intersecting the region, or every block
  /// when the request has none; the blocks execute() reconstructs.
  std::vector<std::uint32_t> blocks;
  /// Reader state serial this plan was computed against; execute() rejects
  /// stale plans (the reader advanced since plan() ran).
  std::uint64_t epoch = 0;
};

}  // namespace ipcomp
