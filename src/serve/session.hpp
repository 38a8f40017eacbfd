// Per-client serving session: a ProgressiveReader over the shared tier, for
// in-process clients.  (The network daemon keeps no reader per client: its
// clients plan and decode locally, and an OPEN there holds only a
// SessionSource whose ledger meters the quota.)
//
// A Session is what one client holds: its own reader (resident planes,
// reconstruction, request history) wired through a SessionSource into the
// archive's shared cache + pooled I/O.  Because plan() prices a request
// exactly before any byte moves, a per-session byte quota is enforced at
// plan-admission time — a comparison against the plan's bytes_new, not a
// mid-transfer cutoff — and a rejected request leaves the session exactly
// as it was.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/progressive_reader.hpp"
#include "serve/archive_set.hpp"

namespace ipcomp {

/// Thrown when admitting a plan would take the session past its quota; the
/// session state is untouched (nothing was fetched or decoded).
class QuotaExceeded : public std::runtime_error {
 public:
  QuotaExceeded(std::uint64_t needed, std::uint64_t remaining)
      : std::runtime_error("session quota exceeded: plan needs " +
                           std::to_string(needed) + " bytes, " +
                           std::to_string(remaining) + " remain"),
        needed_(needed),
        remaining_(remaining) {}

  std::uint64_t needed() const { return needed_; }
  std::uint64_t remaining() const { return remaining_; }

 private:
  std::uint64_t needed_;
  std::uint64_t remaining_;
};

/// Thread contract: externally-synchronized — one session per client,
/// serialized by that client, exactly like the reader it wraps.  Any number
/// of sessions may run concurrently over one ArchiveHandle; the shared tier
/// underneath is internally-synchronized.
template <typename T>
class Session {
 public:
  /// `byte_quota` of 0 means unlimited.  The quota meters everything the
  /// session retrieves, including the archive open cost attributed to its
  /// first request.
  explicit Session(std::shared_ptr<ArchiveHandle> handle,
                   std::uint64_t byte_quota = 0)
      : src_(std::move(handle)), reader_(src_), quota_(byte_quota) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Pure pricing, free to call: what would `req` fetch for *this* session
  /// given what it already holds?
  RetrievalPlan plan(const Request& req) const { return reader_.plan(req); }

  /// Admission + execution: throws QuotaExceeded (before any I/O) if the
  /// plan's exact price does not fit the remaining quota.
  RetrievalStats execute(const RetrievalPlan& p) {
    if (quota_ != 0 && p.bytes_new > quota_remaining()) {
      throw QuotaExceeded(p.bytes_new, quota_remaining());
    }
    RetrievalStats st = reader_.execute(p);
    used_ += st.bytes_new;
    return st;
  }

  /// One-call retrieval with admission: execute(plan(req)).
  RetrievalStats retrieve(const Request& req) { return execute(plan(req)); }

  const std::vector<T>& data() const { return reader_.data(); }
  const ProgressiveReader<T>& reader() const { return reader_; }

  /// Bytes attributed to this session's executed requests so far (its
  /// private ledger — cache hits count: the client consumed the data even if
  /// storage was spared).  Sums the per-request bytes_new, so the archive
  /// open cost lands here with the first executed request, mirroring how a
  /// plan prices it; after any request this equals the session source's
  /// stats().bytes_read.
  std::uint64_t bytes_used() const { return used_; }
  std::uint64_t quota() const { return quota_; }
  std::uint64_t quota_remaining() const {
    return quota_ <= used_ ? 0 : quota_ - used_;
  }

 private:
  SessionSource src_;
  ProgressiveReader<T> reader_;
  std::uint64_t quota_;
  std::uint64_t used_ = 0;
};

}  // namespace ipcomp
