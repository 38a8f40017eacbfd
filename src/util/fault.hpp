// Deterministic fault injection for the storage and wire layers.
//
// A FaultPlan is a seeded, reproducible schedule of failures.  Two seams
// consume it: net/wire.cpp's FrameChannel consults it (through the
// FaultInjector interface) before and after every raw socket I/O, and
// FaultySource wraps any SegmentSource to fault physical reads.  Because the
// schedule keys off operation ordinals — not wall time or real signals —
// the exact same failure sequence replays on every run with the same seed
// and traffic, which is what turns "survives a connection reset mid-FETCH"
// from a prayer into a regression test (tests/test_net.cpp) and powers
// `ipc serve --fault-seed`.
//
// Injected failure modes:
//   * torn reads/writes  — one raw I/O clamped to a single byte, exercising
//     the resume loops around ::send/::recv;
//   * EINTR storms       — I/Os clamped to zero bytes, the signal-interrupt
//     shape without needing real signals;
//   * bit flips          — one bit of a received chunk inverted, exercising
//     checksum verification at the wire boundary;
//   * connection resets  — the socket is shut down mid-operation;
//   * delay spikes       — a bounded sleep before an I/O;
//   * storage faults     — FaultySource: fail-after-N-reads, payload flips.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "io/archive.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace ipcomp {

/// Direction of a raw wire I/O consulting the injector.
enum class FaultOp { kRead, kWrite };

/// The seam FrameChannel consults around every raw socket I/O.  The default
/// implementation injects nothing; FaultPlan is the scheduled one.
///
/// Call order per raw I/O: drop() (reset decision, advances the op ordinal),
/// then clamp() (byte-count limit; 0 simulates an EINTR return), then — for
/// reads that moved bytes — corrupt() over the received chunk.
///
/// Thread contract: internally-synchronized in FaultPlan; a custom injector
/// shared across connections must synchronize itself.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// True = reset the connection before this I/O.
  virtual bool drop(FaultOp) { return false; }
  /// Clamp one raw I/O's byte count; returning 0 simulates EINTR.
  virtual std::size_t clamp(FaultOp, std::size_t want) { return want; }
  /// Mutate bytes a raw read just received (bit flips).
  virtual void corrupt(FaultOp, std::uint8_t* /*data*/, std::size_t /*len*/) {}
};

/// Seeded, reproducible fault schedule.  Explicit faults are pinned to raw
/// I/O ordinals (0-based, reads and writes share the counter); the random()
/// factory instead derives an endless schedule from the seed and a
/// probability profile, for `ipc serve --fault-seed` style soak runs.
///
/// Thread contract: internally-synchronized — one plan may be shared by a
/// connection's reader and writer, or consulted from a server handler
/// thread.
class FaultPlan final : public FaultInjector {
 public:
  /// Probabilities per raw I/O for the seeded-random mode; the defaults are
  /// a mild soak profile (mostly torn writes and brief stalls).
  struct Profile {
    double reset_p = 0.0;
    double torn_p = 0.10;
    double eintr_p = 0.05;
    double delay_p = 0.0;
    unsigned delay_ms = 2;
    bool on_reads = true;
    bool on_writes = true;
  };

  explicit FaultPlan(std::uint64_t seed = 0) : rng_(seed) {}

  /// A plan that rolls the profile's dice on every raw I/O, deterministically
  /// from `seed`.
  static std::shared_ptr<FaultPlan> random(std::uint64_t seed,
                                           const Profile& profile);

  // -- explicit schedule (returns *this for chaining) -----------------------
  /// Reset the connection at the nth raw I/O.
  FaultPlan& reset_at(std::uint64_t nth_op);
  /// Clamp the nth raw I/O to one byte (torn read/write).
  FaultPlan& torn_at(std::uint64_t nth_op);
  /// Simulate EINTR returns for `times` consecutive raw I/Os starting at the
  /// nth (each interrupted attempt is retried as the next ordinal, so this
  /// reads as one storm of `times` interrupts).
  FaultPlan& eintr_at(std::uint64_t nth_op, unsigned times = 3);
  /// Invert one bit of the byte stream received from the nth raw I/O onward
  /// (reads only): `byte` indexes into the concatenation of chunks starting
  /// at that ordinal, carrying into later reads when a chunk is short —
  /// kernel chunking must not retarget the flip.  `bit` is masked to 0–7.
  FaultPlan& flip_at(std::uint64_t nth_op, std::size_t byte = 0,
                     unsigned bit = 0);
  /// Sleep `ms` before the nth raw I/O (delay spike).
  FaultPlan& delay_at(std::uint64_t nth_op, unsigned ms);
  /// FaultySource: fail every read once `n` reads have completed.
  FaultPlan& fail_reads_after(std::uint64_t n);
  /// FaultySource: invert one bit of the nth (0-based) payload delivered.
  FaultPlan& corrupt_read_at(std::uint64_t nth_payload, std::size_t byte = 0,
                             unsigned bit = 0);

  // -- FaultInjector --------------------------------------------------------
  bool drop(FaultOp op) override IPCOMP_EXCLUDES(mu_);
  std::size_t clamp(FaultOp op, std::size_t want) override IPCOMP_EXCLUDES(mu_);
  void corrupt(FaultOp op, std::uint8_t* data, std::size_t len) override
      IPCOMP_EXCLUDES(mu_);

  // -- counters (exact once traffic quiesces) -------------------------------
  /// Raw I/Os observed (drop() calls).
  std::uint64_t io_ops() const IPCOMP_EXCLUDES(mu_);
  /// Faults actually fired, by kind and in total.
  std::uint64_t resets() const IPCOMP_EXCLUDES(mu_);
  std::uint64_t torn() const IPCOMP_EXCLUDES(mu_);
  std::uint64_t eintrs() const IPCOMP_EXCLUDES(mu_);
  std::uint64_t flips() const IPCOMP_EXCLUDES(mu_);
  std::uint64_t injected() const IPCOMP_EXCLUDES(mu_);

 private:
  friend class FaultySource;

  struct WireFault {
    bool reset = false;
    bool torn = false;
    bool eintr = false;
    bool flip = false;
    std::size_t flip_byte = 0;
    unsigned flip_bit = 0;
    unsigned delay_ms = 0;
  };

  /// The fault (if any) scheduled for op ordinal `n`, rolling the random
  /// profile when enabled.
  WireFault& slot(std::uint64_t n) IPCOMP_REQUIRES(mu_);

  mutable Mutex mu_;
  Rng rng_ IPCOMP_GUARDED_BY(mu_);
  bool randomized_ IPCOMP_GUARDED_BY(mu_) = false;
  Profile profile_ IPCOMP_GUARDED_BY(mu_);
  std::map<std::uint64_t, WireFault> wire_faults_ IPCOMP_GUARDED_BY(mu_);
  /// One shared ordinal per raw I/O: drop() assigns it, clamp()/corrupt()
  /// refer to the I/O drop() most recently admitted.
  std::uint64_t next_op_ IPCOMP_GUARDED_BY(mu_) = 0;

  struct ReadFault {
    bool flip = false;
    std::size_t byte = 0;
    unsigned bit = 0;
  };
  std::uint64_t fail_reads_after_ IPCOMP_GUARDED_BY(mu_) = UINT64_MAX;
  std::map<std::uint64_t, ReadFault> read_faults_ IPCOMP_GUARDED_BY(mu_);
  std::uint64_t source_reads_ IPCOMP_GUARDED_BY(mu_) = 0;

  std::uint64_t ops_ IPCOMP_GUARDED_BY(mu_) = 0;
  std::uint64_t resets_ IPCOMP_GUARDED_BY(mu_) = 0;
  std::uint64_t torn_ IPCOMP_GUARDED_BY(mu_) = 0;
  std::uint64_t eintrs_ IPCOMP_GUARDED_BY(mu_) = 0;
  std::uint64_t flips_ IPCOMP_GUARDED_BY(mu_) = 0;
};

/// SegmentSource decorator that injects the plan's storage faults: reads
/// fail outright past the fail-after threshold (throwing std::runtime_error,
/// the flaky-disk shape), and scheduled payload corruptions flip a bit in
/// the bytes handed out — downstream trust boundaries (cache insert, decode)
/// must catch them via checksums.  Index queries and checksums pass through
/// untouched.
///
/// Thread contract: matches the wrapped source (the plan is internally-
/// synchronized).
class FaultySource final : public SegmentSource {
 public:
  FaultySource(std::unique_ptr<SegmentSource> base,
               std::shared_ptr<FaultPlan> plan)
      : base_(std::move(base)), plan_(std::move(plan)) {}

  const Bytes& header() override;
  Bytes read_segment(SegmentId id) override;
  std::vector<Bytes> read_many(std::span<const SegmentId> ids) override;
  bool has_segment(SegmentId id) const override {
    return base_->has_segment(id);
  }
  std::size_t segment_size(SegmentId id) const override {
    return base_->segment_size(id);
  }
  std::vector<SegmentId> segment_ids() const override {
    return base_->segment_ids();
  }
  std::uint32_t version() const override { return base_->version(); }
  std::optional<std::uint64_t> segment_checksum(SegmentId id) const override {
    return base_->segment_checksum(id);
  }
  std::size_t total_size() const override { return base_->total_size(); }

 private:
  /// Fold what the base just charged into this source's own counters, so
  /// stats() reads the same through the decorator.
  void mirror(const SourceStats& before);

  std::unique_ptr<SegmentSource> base_;
  std::shared_ptr<FaultPlan> plan_;
};

}  // namespace ipcomp
