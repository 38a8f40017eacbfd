// Remote progressive retrieval: the client side of net/wire.hpp.
//
// RemoteReader<T> mirrors ProgressiveReader's plan/execute/retrieve lifecycle
// over a daemon connection.  The trick that keeps it byte-identical to a
// local reader: the client runs its *own* ProgressiveReader over a
// StagedSource primed from the OPEN reply (header bytes, segment table,
// open cost), so plan() prices locally with exactly the server's arithmetic
// and sends nothing.  EXECUTE carries the request with the plan's epoch and
// price; the server re-plans it, streams the still-compressed segment
// payloads into the staging area only if both sides agree, and the local
// reader decodes them — so a refinement costs one round trip and moves only
// the plan's bytes_new across the wire, never re-sending what the client
// already holds.
//
// Self-healing: transient wire failures (connection reset, I/O error,
// timeout, a checksum-rejected SEGMENT frame) are recovered transparently
// under a RetryPolicy — the reader reconnects, re-OPENs, replays its
// acknowledged request history via RESUME so the server rebuilds the exact
// session state, and retries the interrupted operation.  Only a divergence
// *after* the server acknowledged an EXECUTE (local decode failure,
// accounting mismatch) still poisons the reader: at that point the two
// sides disagree about state that replay cannot reproduce.
//
// Thread contract: externally-synchronized — one RemoteReader (and the
// RemoteArchive/connection under it) belongs to one client thread, exactly
// like the local reader it mirrors.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/progressive_reader.hpp"
#include "net/wire.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"

namespace ipcomp::net {

/// SegmentSource primed over the wire: immutable index/header from OPEN,
/// payloads staged by EXECUTE and consumed by the local reader.  Charges its
/// ledger exactly like the server-side SessionSource (open cost at the first
/// header fetch, delivered payload bytes per batch), so budget-driven plans
/// price identically on both ends.
class StagedSource final : public SegmentSource {
 public:
  const Bytes& header() override {
    if (!header_charged_) {
      charge_bytes(open_cost_);
      count_read_call();
      header_charged_ = true;
    }
    return header_;
  }
  Bytes read_segment(SegmentId id) override;
  /// Serves previously staged payloads; throws std::runtime_error if the
  /// server did not deliver one of `ids` (protocol violation).
  std::vector<Bytes> read_many(std::span<const SegmentId> ids) override;
  bool has_segment(SegmentId id) const override {
    return sizes_.count(id.key(version_)) != 0;
  }
  std::size_t segment_size(SegmentId id) const override;
  std::vector<SegmentId> segment_ids() const override;
  std::uint32_t version() const override { return version_; }
  std::size_t total_size() const override { return total_size_; }
  std::optional<std::uint64_t> segment_checksum(SegmentId id) const override {
    auto it = checks_.find(id.key(version_));
    if (it == checks_.end()) return std::nullopt;
    return it->second;
  }
  /// Header + segment-table cost the server reported at OPEN (charged to
  /// this source's ledger on the first header fetch, like any local source).
  std::size_t open_cost() const { return open_cost_; }

 private:
  friend class RemoteArchive;

  void stage(std::uint64_t key, Bytes payload) {
    staged_[key] = std::move(payload);
  }

  Bytes header_;
  std::size_t open_cost_ = 0;
  bool header_charged_ = false;
  std::uint32_t version_ = 0;
  std::size_t total_size_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> sizes_;
  std::vector<std::uint64_t> order_;  // table order, for segment_ids()
  /// v4 archives ship the per-segment checksum column in OPEN_OK; SEGMENT
  /// payloads are verified against it before staging (wire trust boundary).
  std::unordered_map<std::uint64_t, std::uint64_t> checks_;
  std::unordered_map<std::uint64_t, Bytes> staged_;
};

/// EXECUTE_OK payload: the stats the server's session recorded.
struct ExecReply {
  std::uint64_t bytes_new = 0;
  std::uint64_t bytes_total = 0;
  double guaranteed_error = 0.0;
  double bitrate = 0.0;
};

/// RESUME_OK payload: the rebuilt session's state after history replay.
struct ResumeReply {
  std::uint64_t epoch = 0;
  std::uint64_t bytes_used = 0;
};

/// One dialed connection with one archive OPENed on it.  Speaks raw frames;
/// RemoteReader<T> supplies the reader lifecycle on top.  Server ERROR
/// frames surface as typed exceptions: kQuotaExceeded -> QuotaExceeded,
/// kStalePlan -> std::logic_error, kBadRequest -> std::invalid_argument,
/// kPriceDrift -> std::runtime_error, anything else -> RemoteError.
class RemoteArchive {
 public:
  /// Dial `spec` ("host:port" or "unix:/path"), HELLO, and OPEN `name`.
  RemoteArchive(const std::string& spec, const std::string& name,
                int timeout_ms = 30000);
  RemoteArchive(const RemoteArchive&) = delete;
  RemoteArchive& operator=(const RemoteArchive&) = delete;

  /// The wire-primed source the local mirror reader plugs into.
  StagedSource& source() { return src_; }

  /// Sends `p`'s request with its epoch and price; the server re-plans it
  /// and streams the segment payloads into source()'s staging area,
  /// verifying each against the OPEN checksum column (throws IntegrityError
  /// at the wire layer on mismatch, before staging).
  ExecReply execute_remote(const RetrievalPlan& p);
  ServeStats stat();
  /// CLOSE the archive and say goodbye; the connection drops.
  void close();

  /// Drop the current connection (if any), re-dial, HELLO, and re-OPEN the
  /// same archive, verifying the server still exports the identical bytes
  /// (version, sizes, table, checksums) — a changed archive is protocol
  /// drift, not a transient fault.  The staged source keeps its residency:
  /// the reader holding it stays valid across the reconnect.
  void reconnect();
  /// Replay `history` (the acknowledged requests, oldest first) so the
  /// server rebuilds this session's exact residency and quota ledger.
  ResumeReply resume_remote(const std::vector<Request>& history);

  /// Install a fault injector on the wire (testing / soak); survives
  /// reconnect — the injector is re-attached to every new channel.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  /// Segment payload bytes received over the wire, total and for the most
  /// recent execute_remote (the "bytes on wire" half of the transfer-savings
  /// story; compare with RetrievalStats::bytes_new).  Retransmits after a
  /// recovery count: these really did cross the wire again.
  std::uint64_t wire_payload_bytes() const { return wire_payload_bytes_; }
  std::uint64_t last_payload_bytes() const { return last_payload_bytes_; }

 private:
  /// Dial and install the frame channel (plus any fault injector).
  void connect();
  /// HELLO + OPEN.  First time primes the staged source; `reopening` instead
  /// cross-checks the reply against what OPEN primed originally.
  void handshake(bool reopening);
  /// Receive one frame, unwrap ERROR frames into typed exceptions, and
  /// insist on `expect`.
  Frame expect_reply(Op expect);

  std::string spec_;
  std::string name_;
  int timeout_ms_;
  /// Optional only so reconnect() can replace the channel in place;
  /// engaged from the constructor on.
  std::optional<FrameChannel> ch_;
  std::shared_ptr<FaultInjector> faults_;
  std::uint32_t open_id_ = 0;
  StagedSource src_;
  std::uint64_t wire_payload_bytes_ = 0;
  std::uint64_t last_payload_bytes_ = 0;
};

/// Bounds for the self-healing retry loop in RemoteReader.  An operation is
/// attempted at most `max_attempts` times; between attempts the reader
/// sleeps an exponentially growing, jittered backoff and then runs one
/// recovery cycle (reconnect + RESUME replay).  `recovery_budget` caps total
/// recovery cycles over the reader's lifetime, so a persistently flaky link
/// still converges to a typed failure instead of retrying forever.
struct RetryPolicy {
  int max_attempts = 4;
  unsigned backoff_base_ms = 5;
  unsigned backoff_max_ms = 200;
  unsigned recovery_budget = 16;
  std::uint64_t jitter_seed = 0x1e7f;
};

/// Drop-in remote counterpart of ProgressiveReader<T>: same
/// plan/execute/retrieve surface, same stats, byte-identical reconstruction
/// for the same request sequence.  The reader config is pinned to defaults —
/// the server's pricing mirror uses defaults, and the two must agree for
/// plans to match.
///
/// Transient wire failures self-heal under `policy` (see RetryPolicy): the
/// reader reconnects, replays its acknowledged history via RESUME, and
/// retries — a mid-EXECUTE connection reset resumes transparently, with the
/// retry observable via recoveries().  Exhausted retries rethrow the last
/// typed error (WireError / IntegrityError).
template <typename T>
class RemoteReader {
 public:
  RemoteReader(const std::string& spec, const std::string& name,
               int timeout_ms = 30000, RetryPolicy policy = {})
      : archive_(spec, name, timeout_ms),
        reader_(archive_.source()),
        policy_(policy),
        jitter_(policy.jitter_seed) {}
  RemoteReader(const RemoteReader&) = delete;
  RemoteReader& operator=(const RemoteReader&) = delete;

  /// Price `req` locally: the mirror reader's own plan, no frame sent.
  RetrievalPlan plan(const Request& req);
  /// Pull the plan's segments over the wire (one EXECUTE round trip) and
  /// decode them locally.  A plan from an earlier epoch throws
  /// std::logic_error before any frame is sent; a server whose price
  /// disagrees with the local mirror (protocol drift) throws
  /// std::runtime_error and leaves both sides untouched.
  ///
  /// Failure after the server replied EXECUTE_OK (the local decode throws,
  /// or the accounting cross-check fails) leaves the server session one
  /// epoch ahead of the local mirror with no way to roll either side back;
  /// the reader is then *poisoned* — every later plan/execute throws
  /// std::logic_error immediately — and recovery is a fresh RemoteReader.
  /// Failures *before* that acknowledgement recover via reconnect + RESUME.
  RetrievalStats execute(const RetrievalPlan& p);
  RetrievalStats retrieve(const Request& req) { return execute(plan(req)); }

  const std::vector<T>& data() const { return reader_.data(); }
  const ProgressiveReader<T>& reader() const { return reader_; }
  RemoteArchive& archive() { return archive_; }

  /// Recovery cycles (reconnect + RESUME replay) performed so far.
  std::uint64_t recoveries() const { return recoveries_; }
  /// Operation attempts that failed with a recoverable error and were
  /// retried.
  std::uint64_t retries() const { return retries_; }

 private:
  /// Throws std::logic_error once a server/mirror divergence poisoned the
  /// reader (see execute()).
  void check_poisoned() const;
  /// Run `op` with the retry policy: recoverable failures (non-protocol
  /// WireError, wire-layer IntegrityError) trigger backoff + one recovery
  /// cycle, then retry; anything else — and the last exhausted attempt —
  /// propagates.
  template <typename F>
  auto with_recovery(F&& op) -> decltype(op());
  /// One recovery cycle: reconnect, then RESUME the acknowledged history.
  void recover_connection();
  void backoff(int attempt);

  RemoteArchive archive_;
  ProgressiveReader<T> reader_;
  RetryPolicy policy_;
  Rng jitter_;
  /// Acknowledged requests in execution order — what RESUME replays.
  std::vector<Request> history_;
  std::uint64_t recoveries_ = 0;
  std::uint64_t retries_ = 0;
  bool poisoned_ = false;
};

extern template class RemoteReader<float>;
extern template class RemoteReader<double>;

}  // namespace ipcomp::net
