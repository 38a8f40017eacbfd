// Remote progressive retrieval: the client side of net/wire.hpp.
//
// RemoteReader<T> mirrors ProgressiveReader's plan/execute/retrieve lifecycle
// over a daemon connection, and the client is the only planner.  It runs its
// *own* ProgressiveReader over a StagedSource primed from the OPEN reply
// (header bytes, segment table, open cost), so plan() prices locally with
// exactly the arithmetic of a local reader and sends nothing.  execute()
// sends one FETCH naming the plan's segment keys; the server checks them
// against the index, charges the open's quota, and streams the
// still-compressed payloads into the staging area, where the local reader
// decodes them.  A refinement costs one round trip and moves only the plan's
// segments across the wire, never re-sending what the client already holds.
// The server keeps no per-client residency, so nothing on it can disagree
// with the client's state.
//
// Self-healing: transient wire failures (connection reset, I/O error,
// timeout, a checksum-rejected SEGMENT frame) are recovered transparently
// under a RetryPolicy — the reader reconnects (HELLO + OPEN, checking the
// server still exports the identical archive) and sends the same FETCH
// again, which is idempotent.  A reconnect opens a fresh quota ledger on the
// server.
//
// Thread contract: externally-synchronized — one RemoteReader (and the
// RemoteArchive/connection under it) belongs to one client thread, exactly
// like the local reader it mirrors.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/progressive_reader.hpp"
#include "net/wire.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"

namespace ipcomp::net {

/// SegmentSource primed over the wire: immutable index/header from OPEN,
/// payloads staged by FETCH and consumed by the local reader.  Charges its
/// ledger exactly like a SessionSource (open cost at the first header fetch,
/// delivered payload bytes per batch), so budget-driven plans price exactly
/// as a local reader's would.
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

/// One dialed connection with one archive OPENed on it.  Speaks raw frames;
/// RemoteReader<T> supplies the reader lifecycle on top.  Server ERROR
/// frames surface as typed exceptions: kQuotaExceeded -> QuotaExceeded,
/// kBadRequest -> std::invalid_argument, anything else -> RemoteError.
class RemoteArchive {
 public:
  /// Dial `spec` ("host:port" or "unix:/path"), HELLO, and OPEN `name`.
  RemoteArchive(const std::string& spec, const std::string& name,
                int timeout_ms = 30000);
  RemoteArchive(const RemoteArchive&) = delete;
  RemoteArchive& operator=(const RemoteArchive&) = delete;

  /// The wire-primed source the local reader plugs into.
  StagedSource& source() { return src_; }

  /// Sends one FETCH for `ids` (queued into one write, however many frames
  /// the key list needs) and stages the streamed payloads in source(),
  /// verifying each against the OPEN checksum column first (throws
  /// IntegrityError at the wire layer on mismatch, before staging).
  void fetch(std::span<const SegmentId> ids);
  ServeStats stat();
  /// CLOSE the archive and say goodbye; the connection drops.
  void close();

  /// Drop the current connection (if any), re-dial, HELLO, and re-OPEN the
  /// same archive, verifying the server still exports the identical bytes
  /// (version, sizes, table, checksums) — a changed archive is protocol
  /// drift, not a transient fault.  The staged source keeps its index: the
  /// reader holding it stays valid across the reconnect.
  void reconnect();

  /// Install a fault injector on the wire (testing / soak); survives
  /// reconnect — the injector is re-attached to every new channel.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  /// Segment payload bytes received over the wire, total and for the most
  /// recent fetch (the "bytes on wire" half of the transfer-savings
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
/// recovery cycle (a reconnect, then the same FETCH again).
/// `recovery_budget` caps total recovery cycles over the reader's lifetime,
/// so a persistently flaky link still converges to a typed failure instead
/// of retrying forever.
struct RetryPolicy {
  int max_attempts = 4;
  unsigned backoff_base_ms = 5;
  unsigned backoff_max_ms = 200;
  unsigned recovery_budget = 16;
  std::uint64_t jitter_seed = 0x1e7f;
};

/// Drop-in remote counterpart of ProgressiveReader<T>: same
/// plan/execute/retrieve surface, same stats, byte-identical reconstruction
/// for the same request sequence.
///
/// Transient wire failures self-heal under `policy` (see RetryPolicy): the
/// reader reconnects and sends the same FETCH again — a mid-FETCH connection
/// reset recovers transparently, observable via recoveries().  Exhausted
/// retries rethrow the last typed error (WireError / IntegrityError).
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

  /// Price `req` locally: the local reader's own plan, no frame sent.
  RetrievalPlan plan(const Request& req) { return reader_.plan(req); }
  /// Pull the plan's segments over the wire (one FETCH round trip) and
  /// decode them locally.  A plan from an earlier epoch throws
  /// std::logic_error before any frame is sent.
  RetrievalStats execute(const RetrievalPlan& p);
  RetrievalStats retrieve(const Request& req) { return execute(plan(req)); }

  const std::vector<T>& data() const { return reader_.data(); }
  const ProgressiveReader<T>& reader() const { return reader_; }
  RemoteArchive& archive() { return archive_; }

  /// Recovery cycles (reconnects) performed so far.
  std::uint64_t recoveries() const { return recoveries_; }
  /// Operation attempts that failed with a recoverable error and were
  /// retried.
  std::uint64_t retries() const { return retries_; }

 private:
  /// Jittered exponential sleep before retry number `attempt`.
  void backoff(int attempt);

  RemoteArchive archive_;
  ProgressiveReader<T> reader_;
  RetryPolicy policy_;
  Rng jitter_;
  std::uint64_t recoveries_ = 0;
  std::uint64_t retries_ = 0;
};

extern template class RemoteReader<float>;
extern template class RemoteReader<double>;

}  // namespace ipcomp::net
