// Multi-tenant archive serving: shared handles over opened archives.
//
// An ArchiveSet opens each archive once and hands out shared ArchiveHandles;
// a handle owns the physical source, the PooledSource that merges concurrent
// I/O, and the SegmentCache that keeps hot segments resident for every
// client.  Per-client state lives in Session (serve/session.hpp), whose
// SessionSource — the per-client SegmentSource a ProgressiveReader plugs
// into — is defined here: it serves segments cache-first, misses through the
// shared pool, and keeps per-session accounting so each client's budget math
// (byte quotas, bitrate targets) charges the volume *that client* retrieved,
// cache hit or not.  Two sessions over one archive therefore never cause the
// same plane to be fetched from storage twice (the second request hits the
// cache), while each still pays for it in its own ledger.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>

#include "io/archive.hpp"
#include "serve/cache.hpp"
#include "serve/pooled_source.hpp"
#include "util/sync.hpp"

namespace ipcomp {

/// Sizing knobs for the shared serving tier.
struct ServeOptions {
  /// Segment cache budget shared across *all* archives of an ArchiveSet —
  /// one LRU, one byte cap, hot archives evict cold ones (see README
  /// "Serving" for sizing guidance).  A handle constructed directly (not
  /// through a set) gets a private cache of this capacity.
  std::size_t cache_capacity_bytes = std::size_t{64} << 20;
  /// I/O pool workers behind read_many, per archive.
  unsigned io_threads = 2;
};

/// The shared, internally-synchronized tier of one opened archive: physical
/// source + pooled I/O + segment cache + the header bytes (fetched once, at
/// open).  Obtained from an ArchiveSet (or constructed directly around any
/// source) and shared by every Session on the archive.
///
/// Thread contract: internally-synchronized.  All members hand out either
/// immutable data (header_bytes, open_cost, version) or internally-
/// synchronized components (cache, pooled source, stats snapshots).
class ArchiveHandle {
 public:
  /// Takes ownership of `base`, fetches its header (the only point where
  /// the base's externally-synchronized header() runs), and builds the I/O
  /// pool over `cache` — usually an ArchiveSet's shared cross-archive cache.
  /// The base must allow concurrent read_many calls (MemorySource and
  /// FileSource do) when io_threads > 1.
  ArchiveHandle(std::unique_ptr<SegmentSource> base,
                std::shared_ptr<SegmentCache> cache, unsigned io_threads);
  /// Standalone construction: a private cache of opts.cache_capacity_bytes.
  ArchiveHandle(std::unique_ptr<SegmentSource> base, const ServeOptions& opts)
      : ArchiveHandle(std::move(base),
                      std::make_shared<SegmentCache>(opts.cache_capacity_bytes),
                      opts.io_threads) {}
  ArchiveHandle(const ArchiveHandle&) = delete;
  ArchiveHandle& operator=(const ArchiveHandle&) = delete;

  /// Parsed-header bytes, immutable after construction.
  const Bytes& header_bytes() const { return header_; }
  /// Open cost (header + segment table bytes) every session charges on its
  /// first header fetch, mirroring what a private source would charge.
  std::size_t open_cost() const { return open_cost_; }
  /// Process-unique serial namespacing this handle's entries in the shared
  /// cache (CacheKey::archive).
  std::uint64_t serial() const { return serial_; }

  SegmentCache& cache() { return *cache_; }
  PooledSource& pooled() { return pooled_; }

  /// Physical-I/O counters of the underlying source: what actually hit
  /// storage, across all sessions.  Compare with the sum of session-level
  /// stats to see the shared-cache savings.
  SourceStats source_stats() const { return base_->stats(); }
  /// Stats of the (possibly shared) cache this handle reads through — with a
  /// set-wide cache these counters cover every archive in the set.
  CacheStats cache_stats() const { return cache_->stats(); }

  // Index queries forwarded to the base (const-safe there).
  bool has_segment(SegmentId id) const { return base_->has_segment(id); }
  std::size_t segment_size(SegmentId id) const { return base_->segment_size(id); }
  std::vector<SegmentId> segment_ids() const { return base_->segment_ids(); }
  std::uint32_t version() const { return base_->version(); }
  std::optional<std::uint64_t> segment_checksum(SegmentId id) const {
    return base_->segment_checksum(id);
  }
  std::size_t total_size() const { return base_->total_size(); }

 private:
  std::unique_ptr<SegmentSource> base_;
  PooledSource pooled_;  // decorates *base_
  std::shared_ptr<SegmentCache> cache_;
  Bytes header_;
  std::size_t open_cost_ = 0;
  std::uint64_t serial_ = 0;
};

/// Per-session SegmentSource over a shared ArchiveHandle: cache-first reads,
/// misses fetched through the shared pool (one merged, coalesced dispatch
/// per wave of concurrent demand) and inserted back for the next session.
///
/// Thread contract: externally-synchronized — one SessionSource belongs to
/// one Session/reader and inherits its single-owner contract; the shared
/// tiers it calls into are internally-synchronized, so any number of
/// SessionSources may run concurrently over one handle.
class SessionSource final : public SegmentSource {
 public:
  explicit SessionSource(std::shared_ptr<ArchiveHandle> handle)
      : handle_(std::move(handle)) {}

  const Bytes& header() override {
    if (!header_charged_) {
      charge_bytes(handle_->open_cost());
      count_read_call();
      header_charged_ = true;
    }
    return handle_->header_bytes();
  }
  Bytes read_segment(SegmentId id) override;
  std::vector<Bytes> read_many(std::span<const SegmentId> ids) override;
  bool has_segment(SegmentId id) const override { return handle_->has_segment(id); }
  std::size_t segment_size(SegmentId id) const override {
    return handle_->segment_size(id);
  }
  std::vector<SegmentId> segment_ids() const override {
    return handle_->segment_ids();
  }
  std::uint32_t version() const override { return handle_->version(); }
  std::optional<std::uint64_t> segment_checksum(SegmentId id) const override {
    return handle_->segment_checksum(id);
  }
  std::size_t total_size() const override { return handle_->total_size(); }

 private:
  std::shared_ptr<ArchiveHandle> handle_;
  bool header_charged_ = false;
};

/// Opens archives once and hands out shared handles by name.
///
/// Thread contract: internally-synchronized — open/get/close/size are safe
/// from any thread.  Handles are shared_ptrs: close() only drops the set's
/// reference, so sessions still running on the archive keep it alive.
class ArchiveSet {
 public:
  explicit ArchiveSet(ServeOptions opts = {})
      : opts_(opts),
        cache_(std::make_shared<SegmentCache>(opts.cache_capacity_bytes)) {}
  ArchiveSet(const ArchiveSet&) = delete;
  ArchiveSet& operator=(const ArchiveSet&) = delete;

  /// Opens the archive file at `path` (the name is the path), or returns the
  /// already-open handle.  Open cost is paid once per set, not per caller.
  std::shared_ptr<ArchiveHandle> open_file(const std::string& path)
      IPCOMP_EXCLUDES(mu_);

  /// Registers an in-memory archive under `name`, or returns the handle
  /// already registered under it (the blob is then ignored).
  std::shared_ptr<ArchiveHandle> open_memory(const std::string& name, Bytes blob)
      IPCOMP_EXCLUDES(mu_);

  /// The handle registered under `name`, or nullptr.
  std::shared_ptr<ArchiveHandle> get(const std::string& name) const
      IPCOMP_EXCLUDES(mu_);

  /// Drops the set's reference; live sessions keep the handle alive.
  void close(const std::string& name) IPCOMP_EXCLUDES(mu_);

  std::size_t size() const IPCOMP_EXCLUDES(mu_);

  /// Counters of the set-wide shared cache (all archives together).
  CacheStats cache_stats() const { return cache_->stats(); }

 private:
  ServeOptions opts_;
  /// One LRU + one byte budget shared by every handle this set opens.
  /// shared_ptr because handles outlive a close()d set entry.
  std::shared_ptr<SegmentCache> cache_;
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<ArchiveHandle>> handles_
      IPCOMP_GUARDED_BY(mu_);
};

}  // namespace ipcomp
