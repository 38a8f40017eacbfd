#include "io/mmap_source.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace ipcomp {

MmapSource::MmapSource(const std::string& path, std::size_t map_cap_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open file: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat file: " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* map = MAP_FAILED;
  if (size > 0 && size <= map_cap_bytes) {
    map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  // The mapping stays valid after the descriptor closes.
  ::close(fd);
  if (map == MAP_FAILED) {
    // Empty, over-cap or unmappable: serve through a plain FileSource (which
    // also owns rejecting an empty/forged archive with the usual parse
    // errors).
    fallback_ = std::make_unique<FileSource>(path);
    return;
  }
  map_ = static_cast<const std::uint8_t*>(map);
  map_size_ = size;
  try {
    // The whole file is resident, so the index parse sees everything — same
    // strict rejection as the other sources, without their prefix cap.
    index_ = ArchiveIndex::parse({map_, map_size_}, map_size_);
  } catch (...) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_size_);
    throw;
  }
}

MmapSource::~MmapSource() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_size_);
  }
}

void MmapSource::fold_fallback_stats(const SourceStats& before) {
  const SourceStats after = fallback_->stats();
  charge_bytes(after.bytes_read - before.bytes_read);
  for (std::size_t k = before.read_calls; k < after.read_calls; ++k) {
    count_read_call();
  }
  for (std::size_t k = before.coalesced_ranges; k < after.coalesced_ranges;
       ++k) {
    count_coalesced_range();
  }
}

const Bytes& MmapSource::header() {
  if (fallback_) {
    const SourceStats before = fallback_->stats();
    const Bytes& h = fallback_->header();
    fold_fallback_stats(before);
    return h;
  }
  if (!header_charged_) {
    header_cache_.assign(map_ + index_.header_offset,
                         map_ + index_.header_offset + index_.header_length);
    charge_bytes(index_.header_offset + index_.header_length);
    count_read_call();
    header_charged_ = true;
  }
  return header_cache_;
}

const ArchiveIndex::Entry& MmapSource::resolve(SegmentId id) const {
  auto it = index_.entries.find(id.key(index_.version));
  if (it == index_.entries.end()) {
    throw std::runtime_error("archive: missing segment");
  }
  return it->second;
}

Bytes MmapSource::read_segment(SegmentId id) {
  if (fallback_) {
    const SourceStats before = fallback_->stats();
    Bytes out = fallback_->read_segment(id);
    fold_fallback_stats(before);
    return out;
  }
  const ArchiveIndex::Entry& e = resolve(id);
  // Verified straight off the mapping, before the payload is handed out.
  index_.verify(e, {map_ + e.offset, e.length});
  charge_bytes(e.length);
  count_read_call();
  return {map_ + e.offset, map_ + e.offset + e.length};
}

std::vector<Bytes> MmapSource::read_many(std::span<const SegmentId> ids) {
  if (fallback_) {
    const SourceStats before = fallback_->stats();
    std::vector<Bytes> out = fallback_->read_many(ids);
    fold_fallback_stats(before);
    return out;
  }
  std::vector<Bytes> out(ids.size());
  if (ids.empty()) return out;

  // Resolve everything before copying or charging (all-or-nothing, like
  // FileSource), and count read_calls per coalesced run under the same gap
  // rule so fetch-efficiency stats are comparable across source kinds —
  // a mapped "read" is the page-fault run the same access pattern causes.
  struct Item {
    std::size_t idx;
    std::size_t offset;
    std::size_t length;
    const ArchiveIndex::Entry* entry;
  };
  std::vector<Item> items;
  items.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ArchiveIndex::Entry& e = resolve(ids[i]);
    items.push_back({i, e.offset, e.length, &e});
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.offset < b.offset; });

  for (std::size_t i = 0; i < items.size();) {
    std::size_t end = items[i].offset + items[i].length;
    std::size_t j = i + 1;
    while (j < items.size() && items[j].offset <= end + kCoalesceGapBytes) {
      end = std::max(end, items[j].offset + items[j].length);
      ++j;
    }
    count_read_call();
    count_coalesced_range();
    for (; i < j; ++i) {
      const Item& item = items[i];
      // Verified off the mapping before the batch charges anything.
      index_.verify(*item.entry, {map_ + item.offset, item.length});
      out[item.idx].assign(map_ + item.offset,
                           map_ + item.offset + item.length);
    }
  }
  for (const Item& item : items) charge_bytes(item.length);
  return out;
}

bool MmapSource::has_segment(SegmentId id) const {
  if (fallback_) return fallback_->has_segment(id);
  return index_.entries.contains(id.key(index_.version));
}

std::size_t MmapSource::segment_size(SegmentId id) const {
  if (fallback_) return fallback_->segment_size(id);
  return resolve(id).length;
}

std::vector<SegmentId> MmapSource::segment_ids() const {
  if (fallback_) return fallback_->segment_ids();
  return index_.ids();
}

std::uint32_t MmapSource::version() const {
  if (fallback_) return fallback_->version();
  return index_.version;
}

std::optional<std::uint64_t> MmapSource::segment_checksum(SegmentId id) const {
  if (fallback_) return fallback_->segment_checksum(id);
  return index_.checksum_of(id.key(index_.version));
}

std::size_t MmapSource::total_size() const {
  if (fallback_) return fallback_->total_size();
  return map_size_;
}

}  // namespace ipcomp
