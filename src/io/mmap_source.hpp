// mmap-backed SegmentSource.
//
// MmapSource maps the whole archive file read-only and serves header and
// segment fetches by copying out of the mapping — no per-fetch open/seek/
// read syscalls, and the page cache is shared across every process serving
// the same archive.  The accounting is bit-for-bit FileSource's: header()
// charges the open cost once, read_many() resolves the whole batch before
// anything is charged (all-or-nothing), and batched fetches count one
// read_call + coalesced_range per contiguous run under the same
// kCoalesceGapBytes rule, so fetch-efficiency metrics compare directly
// across the two backends.
//
// Files that cannot or should not be mapped — empty files, files larger
// than `map_cap_bytes`, or an mmap(2) failure — fall back to a private
// FileSource; mapped() reports which path is live.
//
// Thread contract: inherits SegmentSource's — fetches touch only the
// immutable mapping/index and the atomic counters, so read_segment /
// read_many may overlap from any number of threads; header() mutates the
// header cache and must be serialized (fetched once, at open).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "io/archive.hpp"

namespace ipcomp {

class MmapSource final : public SegmentSource {
 public:
  /// Default mapping cap: archives past this size fall back to FileSource
  /// (bounding address-space use; 64 GiB covers every realistic archive on a
  /// 64-bit host while still having a limit to test against).
  static constexpr std::size_t kDefaultMapCap = std::size_t{64} << 30;

  explicit MmapSource(const std::string& path,
                      std::size_t map_cap_bytes = kDefaultMapCap);
  ~MmapSource() override;
  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  /// True when the file is memory-mapped; false when serving through the
  /// FileSource fallback.
  bool mapped() const { return map_ != nullptr; }

  const Bytes& header() override;
  Bytes read_segment(SegmentId id) override;
  std::vector<Bytes> read_many(std::span<const SegmentId> ids) override;
  bool has_segment(SegmentId id) const override;
  std::size_t segment_size(SegmentId id) const override;
  std::vector<SegmentId> segment_ids() const override;
  std::uint32_t version() const override;
  std::optional<std::uint64_t> segment_checksum(SegmentId id) const override;
  std::size_t total_size() const override;

 private:
  const ArchiveIndex::Entry& resolve(SegmentId id) const;
  /// Fold what the fallback just charged into this source's own counters,
  /// so stats() reads the same no matter which path is live.
  void fold_fallback_stats(const SourceStats& before);

  /// nullptr when falling back; spans the whole file otherwise.
  const std::uint8_t* map_ = nullptr;
  std::size_t map_size_ = 0;
  ArchiveIndex index_;
  Bytes header_cache_;
  bool header_charged_ = false;
  /// Engaged exactly when map_ == nullptr.
  std::unique_ptr<FileSource> fallback_;
};

}  // namespace ipcomp
