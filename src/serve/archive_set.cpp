#include "serve/archive_set.hpp"

#include <atomic>
#include <utility>

namespace ipcomp {

namespace {
/// Process-unique archive serials for CacheKey::archive.  Starts at 1 so 0
/// never names a live archive.
std::uint64_t next_serial() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

ArchiveHandle::ArchiveHandle(std::unique_ptr<SegmentSource> base,
                             std::shared_ptr<SegmentCache> cache,
                             unsigned io_threads)
    : base_(std::move(base)),
      pooled_(*base_, io_threads),
      cache_(std::move(cache)),
      serial_(next_serial()) {
  // Fetch the header through the pool so the pool mirrors the open cost into
  // its own accounting; construction is single-threaded, satisfying
  // header()'s serialization requirement once and for all.
  header_ = pooled_.header();
  open_cost_ = base_->stats().bytes_read;
}

Bytes SessionSource::read_segment(SegmentId id) {
  std::vector<Bytes> one = read_many({&id, 1});
  return std::move(one.front());
}

std::vector<Bytes> SessionSource::read_many(std::span<const SegmentId> ids) {
  std::vector<Bytes> out(ids.size());
  const std::uint32_t ver = handle_->version();
  const std::uint64_t serial = handle_->serial();
  SegmentCache& cache = handle_->cache();

  std::vector<SegmentId> missing;
  std::vector<std::size_t> missing_at;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!cache.get({serial, ids[i].key(ver)}, out[i])) {
      missing.push_back(ids[i]);
      missing_at.push_back(i);
    }
  }
  if (!missing.empty()) {
    // One pooled dispatch for everything this session still misses; the
    // pool merges it with other sessions' concurrent demand.  Throws (e.g.
    // missing segment) before anything is charged here — all-or-nothing,
    // like every other source.
    std::vector<Bytes> fetched = handle_->pooled().read_many(missing);
    for (std::size_t j = 0; j < missing.size(); ++j) {
      // The insert re-verifies against the archive's recorded checksum (v4):
      // the pool handed these bytes across threads and queues, and whatever
      // lands in the cache is replayed to every later session.
      cache.put({serial, missing[j].key(ver)}, fetched[j],
                handle_->segment_checksum(missing[j]), ver);
      out[missing_at[j]] = std::move(fetched[j]);
    }
    count_read_call();
  }
  // The session ledger charges delivered volume whether it came from cache
  // or storage: quotas and bitrate targets meter what the client consumed,
  // not what the shared tier happened to have resident.
  std::size_t delivered = 0;
  for (const Bytes& b : out) delivered += b.size();
  charge_bytes(delivered);
  return out;
}

std::shared_ptr<ArchiveHandle> ArchiveSet::open_file(const std::string& path) {
  LockGuard lock(mu_);
  auto it = handles_.find(path);
  if (it != handles_.end()) return it->second;
  // Built under the lock: a racing open of the same path must not construct
  // (and pay the index parse + header read for) a second handle.
  auto handle = std::make_shared<ArchiveHandle>(
      std::make_unique<FileSource>(path), cache_, opts_.io_threads);
  handles_.emplace(path, handle);
  return handle;
}

std::shared_ptr<ArchiveHandle> ArchiveSet::open_memory(const std::string& name,
                                                       Bytes blob) {
  LockGuard lock(mu_);
  auto it = handles_.find(name);
  if (it != handles_.end()) return it->second;
  auto handle = std::make_shared<ArchiveHandle>(
      std::make_unique<MemorySource>(std::move(blob)), cache_,
      opts_.io_threads);
  handles_.emplace(name, handle);
  return handle;
}

std::shared_ptr<ArchiveHandle> ArchiveSet::get(const std::string& name) const {
  LockGuard lock(mu_);
  auto it = handles_.find(name);
  return it == handles_.end() ? nullptr : it->second;
}

void ArchiveSet::close(const std::string& name) {
  LockGuard lock(mu_);
  handles_.erase(name);
}

std::size_t ArchiveSet::size() const {
  LockGuard lock(mu_);
  return handles_.size();
}

}  // namespace ipcomp
