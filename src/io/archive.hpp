// Segmented archive container with partial retrieval.
//
// An Archive is a header blob plus a table of named segments.  Progressive
// readers fetch individual segments on demand through a SegmentSource, which
// tracks how many bytes were actually touched — that count is the "retrieved
// data volume" reported throughout the evaluation (paper Figs 6/7).
//
// Layout of the serialized archive:
//   magic "IPCA" | version u32 | header_len varint | header bytes
//   | segment_count varint | per segment: (id u64, length varint)
//   | segment payloads, in table order
//
// Three base versions exist.  v1 and v2 differ in how SegmentId packs into
// the u64 table key: v1 has no block axis (kind:16 | level:16 | plane:32);
// v2 adds one for block-decomposed archives (kind:8 | level:8 | plane:12 |
// block:36).  v3 keeps the v2 key packing and differs only in its header,
// which names the progressive backend that owns the payload.  Readers accept
// all three, keyed off the version word; v1 is no longer written.
//
// v4 is an *integrity wrapper* around any base version, adding a per-segment
// checksum column to the table:
//   magic "IPCA" | 4 u32 | base_version u32 | checksum_algo u8
//   | header_len varint | header bytes
//   | segment_count varint | per segment: (id u64, length varint, xxh64 u64)
//   | segment payloads, in table order
// Key packing, header interpretation and reader dispatch all follow the base
// version — SegmentSource::version() keeps reporting it — so a v4 container
// is transparent to everything above the source layer.  Checksums are
// verified on every physical read; a mismatch surfaces as IntegrityError,
// never as wrong payload bytes.  v1–v3 archives still read (one warning per
// process that integrity verification is unavailable for them).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/bytes.hpp"

namespace ipcomp {

/// Archive format versions (the u32 after the magic).
inline constexpr std::uint32_t kArchiveV1 = 1;  // whole-field, read only
inline constexpr std::uint32_t kArchiveV2 = 2;  // block-decomposed fields
/// v3 containers key segments exactly like v2 but carry a v3 header
/// (backend id + metadata); written by every non-interpolation backend.
inline constexpr std::uint32_t kArchiveV3 = 3;
/// v4 wraps a v1–v3 base container with a per-segment checksum column; the
/// container word is 4 and the base version follows it (see file comment).
inline constexpr std::uint32_t kArchiveV4 = 4;
/// The only checksum_algo a v4 container may carry today: XXH64
/// (util/checksum.hpp).
inline constexpr std::uint8_t kChecksumXXH64 = 1;

/// Identifies one independently-retrievable piece of compressed data.
/// For IPComp: kind distinguishes base data from bitplanes; `level` is the
/// interpolation level, `plane` the bitplane index (31 = MSB) and `block`
/// the block ordinal of a block-decomposed (v2) archive.
struct SegmentId {
  std::uint16_t kind = 0;
  std::uint16_t level = 0;
  std::uint32_t plane = 0;
  std::uint32_t block = 0;

  /// Segment-table key under the given archive version.  v1 predates the
  /// block axis, so v1 keys require block == 0; v2 narrows the other fields
  /// (kind < 2^8, level < 2^8, plane < 2^12) to make room for 36 block bits.
  std::uint64_t key(std::uint32_t version) const;

  static SegmentId from_key(std::uint64_t k, std::uint32_t version) {
    SegmentId id;
    if (version >= kArchiveV2) {
      id.kind = static_cast<std::uint16_t>(k >> 56);
      id.level = static_cast<std::uint16_t>((k >> 48) & 0xFF);
      id.plane = static_cast<std::uint32_t>((k >> 36) & 0xFFF);
      id.block = static_cast<std::uint32_t>(k & 0xFFFFFFFFFu);
    } else {
      id.kind = static_cast<std::uint16_t>(k >> 48);
      id.level = static_cast<std::uint16_t>(k >> 32);
      id.plane = static_cast<std::uint32_t>(k);
    }
    return id;
  }
  bool operator==(const SegmentId&) const = default;
};

/// A segment's bytes did not match the checksum recorded at build time.
/// `layer` names the trust boundary that caught it: kStorage (a physical
/// Memory/File/Mmap read), kCache (SegmentCache insert), kWire (a SEGMENT
/// frame on the client).  Thrown *instead of* delivering the payload, so
/// corruption can never flow into reconstruction.
class IntegrityError : public std::runtime_error {
 public:
  enum class Layer { kStorage, kCache, kWire };

  IntegrityError(SegmentId segment, std::uint64_t expected,
                 std::uint64_t actual, Layer layer);

  SegmentId segment() const { return segment_; }
  std::uint64_t expected() const { return expected_; }
  std::uint64_t actual() const { return actual_; }
  Layer layer() const { return layer_; }

 private:
  SegmentId segment_;
  std::uint64_t expected_;
  std::uint64_t actual_;
  Layer layer_;
};

/// Builder-side archive: header + segments assembled during compression.
///
/// Thread contract: externally-synchronized.  Compression assembles per-block
/// results concurrently into a pre-sized vector and feeds the builder from
/// one thread; sharing a builder across threads is the caller's lock.
class ArchiveBuilder {
 public:
  /// Must be chosen before the first add_segment (keys pack differently).
  void set_version(std::uint32_t version) { version_ = version; }
  std::uint32_t version() const { return version_; }

  /// When enabled, finish() wraps the archive in a v4 container whose table
  /// records an XXH64 checksum per segment (see the file comment); the base
  /// version set above still governs key packing and header format.  Off by
  /// default so hand-built containers and pre-v4 golden bytes reproduce
  /// exactly; the compressor turns it on via Options::integrity.
  void set_integrity(bool on) { integrity_ = on; }

  void set_header(Bytes header) { header_ = std::move(header); }

  /// Appends one segment; throws std::invalid_argument on a duplicate id —
  /// silently accepting one would grow `order_` while the map kept a single
  /// entry, corrupting finish()'s table/payload pairing.
  void add_segment(SegmentId id, Bytes payload) {
    const std::uint64_t key = id.key(version_);
    if (!segments_.emplace(key, std::move(payload)).second) {
      throw std::invalid_argument("archive: duplicate segment id");
    }
    order_.push_back(key);
  }

  /// Serialize to a single byte stream.
  Bytes finish() const;

  std::size_t segment_count() const { return segments_.size(); }

 private:
  std::uint32_t version_ = kArchiveV1;
  bool integrity_ = false;
  Bytes header_;
  std::vector<std::uint64_t> order_;
  std::map<std::uint64_t, Bytes> segments_;
};

/// One snapshot of a source's retrieval accounting, taken by a single
/// SegmentSource::stats() call — the stitched per-counter getters this
/// replaced let a monitoring thread read bytes from one instant and calls
/// from another; a snapshot keeps the fields of one read together, and for a
/// quiescent source (no fetch in flight) it is exact.
struct SourceStats {
  /// Bytes of payload + header actually retrieved so far.  This is the
  /// "retrieved data volume" metric of the evaluation: only requested
  /// payload bytes are charged, never coalescing gap bytes.
  std::size_t bytes_read = 0;
  /// Physical read operations issued so far (header + segment fetches; a
  /// coalesced bulk read counts once per contiguous range).  Benchmarks use
  /// segments-fetched / read_calls as the fetch-efficiency figure.
  std::size_t read_calls = 0;
  /// Contiguous ranges issued by batching read_many implementations
  /// (FileSource; each range is one read call).  Zero for per-segment
  /// sources.
  std::size_t coalesced_ranges = 0;
};

/// Read-side interface: fetch the header once, then segments on demand.
/// Implementations count the bytes they hand out.
///
/// Thread contract: const-safe, with internally-synchronized payload fetches
/// and stat counters.  The parsed index is immutable after construction, so
/// the const queries (has_segment, segment_size, segment_ids, version,
/// total_size) are safe from any thread.  read_segment/read_many of the
/// concrete sources touch only the immutable index, operation-local state
/// and the atomic stat counters, so concurrent fetches are safe — this is
/// what lets the serve layer's PooledSource dispatch merged batches from
/// several workers at once.  header() mutates the header cache and must be
/// serialized (in practice: fetched once, at open).  stats() may be sampled
/// from any thread while fetches are in flight and always observes
/// well-defined (if momentarily stale) values; the counters of a *completed*
/// fetch are exact.
class SegmentSource {
 public:
  virtual ~SegmentSource() = default;

  virtual const Bytes& header() = 0;
  /// Returns the payload for `id`; throws if the segment does not exist.
  virtual Bytes read_segment(SegmentId id) = 0;
  /// Fetch many segments in one operation; payloads come back in request
  /// order.  The base implementation loops read_segment(); sources with a
  /// per-operation cost (files, remote stores) override it to batch — e.g.
  /// FileSource sorts by file offset and coalesces near-adjacent ranges into
  /// single reads.  Only the requested segments' payload bytes are charged to
  /// stats().bytes_read, never coalescing gap bytes: the retrieved-data-
  /// volume metric must not depend on the fetch strategy.
  virtual std::vector<Bytes> read_many(std::span<const SegmentId> ids);
  virtual bool has_segment(SegmentId id) const = 0;
  virtual std::size_t segment_size(SegmentId id) const = 0;
  /// All segment ids present in the container, in table order.  Free to call:
  /// the index is part of the open cost, nothing extra is charged.
  virtual std::vector<SegmentId> segment_ids() const = 0;
  /// Archive format version parsed from the container.  For a v4 container
  /// this is the *base* version (1–3): key packing and header interpretation
  /// never depend on the integrity wrapper.
  virtual std::uint32_t version() const = 0;

  /// Checksum recorded for `id` at build time, or nullopt when the container
  /// predates v4 (or the id is unknown).  Decorator sources forward this so
  /// downstream trust boundaries (cache inserts, wire frames) can re-verify.
  virtual std::optional<std::uint64_t> segment_checksum(SegmentId) const {
    return std::nullopt;
  }

  /// One coherent snapshot of the accounting counters.
  SourceStats stats() const {
    SourceStats s;
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.read_calls = read_calls_.load(std::memory_order_relaxed);
    s.coalesced_ranges = coalesced_ranges_.load(std::memory_order_relaxed);
    return s;
  }

  /// Total serialized archive size (for compression-ratio accounting).
  virtual std::size_t total_size() const = 0;

 protected:
  /// Stat counters are plain tallies, not synchronization: relaxed atomics
  /// make concurrent sampling well-defined (no torn reads) without imposing
  /// ordering the fetch path does not need.
  void charge_bytes(std::size_t n) {
    bytes_read_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Roll back `n` bytes charged by a batch that failed to deliver
  /// (all-or-nothing accounting).  A subtraction, not a store: concurrent
  /// fetches on a shared source must not have their charges clobbered.
  void uncharge_bytes(std::size_t n) {
    bytes_read_.fetch_sub(n, std::memory_order_relaxed);
  }
  void count_read_call() { read_calls_.fetch_add(1, std::memory_order_relaxed); }
  void count_coalesced_range() {
    coalesced_ranges_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> bytes_read_{0};
  std::atomic<std::size_t> read_calls_{0};
  std::atomic<std::size_t> coalesced_ranges_{0};
};

/// Adjacent-range coalescing threshold for batched file reads: two segments
/// whose file ranges are within this many bytes of each other are served by
/// one read (the gap is cheaper to read through than a second seek+read).
inline constexpr std::size_t kCoalesceGapBytes = 4096;

/// Parses the serialized archive layout; shared by the concrete sources.
struct ArchiveIndex {
  /// Base version (1–3): governs key packing and header format.
  std::uint32_t version = kArchiveV1;
  /// Container word as serialized: equals `version` for v1–v3, 4 when the
  /// table carries the checksum column.
  std::uint32_t container = kArchiveV1;
  bool has_checksums = false;
  std::size_t header_offset = 0;
  std::size_t header_length = 0;
  struct Entry {
    std::uint64_t key;
    std::size_t offset;
    std::size_t length;
    std::uint64_t checksum = 0;  // valid only when has_checksums
  };
  std::map<std::uint64_t, Entry> entries;
  std::size_t total_size = 0;

  /// Recorded checksum for `key`, if this container has the column.
  std::optional<std::uint64_t> checksum_of(std::uint64_t key) const {
    if (!has_checksums) return std::nullopt;
    auto it = entries.find(key);
    if (it == entries.end()) return std::nullopt;
    return it->second.checksum;
  }

  /// Verify `payload` against the checksum recorded for `entry`; throws
  /// IntegrityError{.layer = kStorage} on mismatch, no-op for pre-v4
  /// containers.  Concrete sources call this on every physical read.
  void verify(const Entry& entry, std::span<const std::uint8_t> payload) const;

  /// All segment ids in the index, decoded under the parsed version.
  std::vector<SegmentId> ids() const {
    std::vector<SegmentId> out;
    out.reserve(entries.size());
    for (const auto& [key, entry] : entries) {
      out.push_back(SegmentId::from_key(key, version));
    }
    return out;
  }

  static ArchiveIndex parse(std::span<const std::uint8_t> head_bytes,
                            std::size_t total_size);

  /// Bytes from the container start through the end of the segment table
  /// when `head` holds them all, else a lower bound on that end above
  /// head.size(): table rows vary in length, so a reader reads up to the
  /// bound and asks again, never past the index.  `head` must hold the
  /// preamble through the header length.
  static std::size_t extent(std::span<const std::uint8_t> head);
};

/// SegmentSource over a fully in-memory archive blob.  Only the bytes of the
/// segments actually requested are charged to stats().bytes_read.
///
/// Thread contract: inherits SegmentSource's — read_segment/read_many touch
/// only the immutable blob/index and the atomic counters, so concurrent
/// fetches are safe; header() mutates the header cache and must be
/// serialized (fetched once, at open).
class MemorySource final : public SegmentSource {
 public:
  explicit MemorySource(Bytes archive);

  const Bytes& header() override;
  Bytes read_segment(SegmentId id) override;
  bool has_segment(SegmentId id) const override;
  std::size_t segment_size(SegmentId id) const override;
  std::vector<SegmentId> segment_ids() const override { return index_.ids(); }
  std::uint32_t version() const override { return index_.version; }
  std::optional<std::uint64_t> segment_checksum(SegmentId id) const override {
    return index_.checksum_of(id.key(index_.version));
  }
  std::size_t total_size() const override { return blob_.size(); }

 private:
  Bytes blob_;
  ArchiveIndex index_;
  Bytes header_cache_;
  bool header_charged_ = false;
};

/// SegmentSource over a file on disk; performs a real positioned read per
/// segment.  read_many() sorts the batch by file offset and coalesces ranges
/// within kCoalesceGapBytes of each other into single bulk reads, slicing
/// each payload out of the shared buffer — one read per contiguous run
/// instead of one per segment.
///
/// The file is opened once, by the constructor, and every read goes through
/// that descriptor.  A file replaced at the same path (write_file renames a
/// new archive over it) therefore keeps being read as the archive whose
/// index was parsed, never as the newcomer's bytes under the old offsets.
///
/// Thread contract: inherits SegmentSource's.  Fetches use pread, which
/// leaves the shared file offset alone, and touch only the immutable index
/// plus the atomic counters, so read_segment/read_many may overlap from any
/// number of threads over one instance — the serve layer's PooledSource
/// relies on this to dispatch merged batches from several workers at once.
/// header() still mutates the header cache and must be serialized (fetched
/// once, at open).
class FileSource final : public SegmentSource {
 public:
  explicit FileSource(const std::string& path);
  ~FileSource() override;
  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  const Bytes& header() override;
  Bytes read_segment(SegmentId id) override;
  std::vector<Bytes> read_many(std::span<const SegmentId> ids) override;
  bool has_segment(SegmentId id) const override;
  std::size_t segment_size(SegmentId id) const override;
  std::vector<SegmentId> segment_ids() const override { return index_.ids(); }
  std::uint32_t version() const override { return index_.version; }
  std::optional<std::uint64_t> segment_checksum(SegmentId id) const override {
    return index_.checksum_of(id.key(index_.version));
  }
  std::size_t total_size() const override { return file_size_; }

 private:
  Bytes read_range(std::size_t offset, std::size_t length) const;

  int fd_ = -1;
  std::size_t file_size_ = 0;
  ArchiveIndex index_;
  Bytes header_cache_;
  bool header_loaded_ = false;
};

/// Write a serialized archive to disk atomically (temp file, fsync, rename):
/// readers of the old file, mmapped ones included, keep it intact.
void write_file(const std::string& path, const Bytes& data);
/// Read a whole file into memory.
Bytes read_file(const std::string& path);

}  // namespace ipcomp
