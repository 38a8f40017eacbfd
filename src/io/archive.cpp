#include "io/archive.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/checksum.hpp"

namespace ipcomp {

namespace {

const char* layer_name(IntegrityError::Layer layer) {
  switch (layer) {
    case IntegrityError::Layer::kStorage:
      return "storage";
    case IntegrityError::Layer::kCache:
      return "cache";
    case IntegrityError::Layer::kWire:
      return "wire";
  }
  return "?";
}

std::string integrity_message(SegmentId id, std::uint64_t expected,
                              std::uint64_t actual,
                              IntegrityError::Layer layer) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "integrity: segment (kind=%u level=%u plane=%u block=%u) "
                "checksum mismatch at %s layer: expected %016llx, got %016llx",
                unsigned{id.kind}, unsigned{id.level}, unsigned{id.plane},
                unsigned{id.block}, layer_name(layer),
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(actual));
  return buf;
}

/// One stderr note per process when a pre-v4 container is opened; the data
/// still reads, it just cannot be verified.
void warn_integrity_unavailable(std::uint32_t version) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "ipcomp: archive container v%u predates per-segment "
                 "checksums; integrity verification is unavailable "
                 "(recompress with integrity enabled to upgrade)\n",
                 version);
  }
}

}  // namespace

IntegrityError::IntegrityError(SegmentId segment, std::uint64_t expected,
                               std::uint64_t actual, Layer layer)
    : std::runtime_error(integrity_message(segment, expected, actual, layer)),
      segment_(segment),
      expected_(expected),
      actual_(actual),
      layer_(layer) {}

std::vector<Bytes> SegmentSource::read_many(std::span<const SegmentId> ids) {
  std::vector<Bytes> out;
  out.reserve(ids.size());
  std::size_t delivered = 0;
  try {
    for (const SegmentId& id : ids) {
      out.push_back(read_segment(id));
      delivered += out.back().size();
    }
  } catch (...) {
    // A mid-batch failure delivers nothing, so nothing may stay charged —
    // same all-or-nothing accounting as FileSource::read_many, keeping a
    // retried execute() from double-counting retrieved volume.  Only this
    // batch's charges are rolled back; fetches on other threads keep theirs.
    uncharge_bytes(delivered);
    throw;
  }
  return out;
}

namespace {
constexpr std::uint32_t kMagic = 0x41435049u;  // "IPCA" little-endian

/// FileSource's first read at open: the whole index of most archives; a
/// larger index is then read to its exact end.
constexpr std::size_t kIndexProbeBytes = std::size_t{64} << 10;

/// One past the last byte of the varint starting at `at`, or 0 when `head`
/// ends inside it.
std::size_t varint_end(std::span<const std::uint8_t> head, std::size_t at) {
  for (std::size_t i = at; i < head.size(); ++i) {
    if (i - at >= 10) throw std::runtime_error("archive: bad varint");
    if (!(head[i] & 0x80)) return i + 1;
  }
  return 0;
}
}  // namespace

std::uint64_t SegmentId::key(std::uint32_t version) const {
  if (version >= kArchiveV2) {
    // block is 32-bit and the v2 key gives it 36, so it always fits.
    if (kind > 0xFF || level > 0xFF || plane > 0xFFF) {
      throw std::runtime_error("archive: segment id out of range for v2 key");
    }
    return (static_cast<std::uint64_t>(kind) << 56) |
           (static_cast<std::uint64_t>(level) << 48) |
           (static_cast<std::uint64_t>(plane) << 36) | block;
  }
  if (block != 0) {
    throw std::runtime_error("archive: v1 keys cannot address blocks");
  }
  return (static_cast<std::uint64_t>(kind) << 48) |
         (static_cast<std::uint64_t>(level) << 32) | plane;
}

Bytes ArchiveBuilder::finish() const {
  ByteWriter w;
  w.u32(kMagic);
  if (integrity_) {
    w.u32(kArchiveV4);
    w.u32(version_);  // base version: key packing + header format
    w.u8(kChecksumXXH64);
  } else {
    w.u32(version_);
  }
  w.varint(header_.size());
  w.bytes(header_);
  w.varint(order_.size());
  for (std::uint64_t key : order_) {
    const Bytes& payload = segments_.at(key);
    w.u64(key);
    w.varint(payload.size());
    if (integrity_) w.u64(checksum64(payload.data(), payload.size()));
  }
  for (std::uint64_t key : order_) {
    w.bytes(segments_.at(key));
  }
  return w.take();
}

ArchiveIndex ArchiveIndex::parse(std::span<const std::uint8_t> head_bytes,
                                 std::size_t total_size) {
  ByteReader r(head_bytes);
  if (r.u32() != kMagic) throw std::runtime_error("archive: bad magic");
  ArchiveIndex idx;
  idx.container = r.u32();
  if (idx.container == kArchiveV4) {
    // Integrity wrapper: the base version follows, then the checksum algo.
    idx.version = r.u32();
    idx.has_checksums = true;
    if (r.u8() != kChecksumXXH64) {
      throw std::runtime_error("archive: unknown checksum algorithm");
    }
  } else {
    idx.version = idx.container;
  }
  if (idx.version < kArchiveV1 || idx.version > kArchiveV3) {
    throw std::runtime_error("archive: bad version");
  }
  if (!idx.has_checksums) warn_integrity_unavailable(idx.version);
  idx.total_size = total_size;
  idx.header_length = r.varint();
  idx.header_offset = r.position();
  // Skip over the header payload to reach the segment table.
  r.bytes(idx.header_length);
  std::size_t count = r.varint();
  // Each table row encodes to at least 9 bytes (u64 key + 1-byte varint;
  // +8 for the v4 checksum column); a forged count must not drive the
  // reserve() allocation below.
  const std::size_t min_row = idx.has_checksums ? 17 : 9;
  if (count > r.remaining() / min_row) {
    throw std::runtime_error("archive: bad segment count");
  }
  struct Row {
    std::uint64_t key;
    std::size_t len;
    std::uint64_t checksum;
  };
  std::vector<Row> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Row row{};
    row.key = r.u64();
    row.len = r.varint();
    if (idx.has_checksums) row.checksum = r.u64();
    rows.push_back(row);
  }
  std::size_t offset = r.position();
  for (const Row& row : rows) {
    // Checked per entry so a huge forged len cannot wrap offset += len.
    if (row.len > total_size - offset) throw std::runtime_error("archive: truncated");
    // Duplicate keys would silently alias two payload ranges to one id.
    if (!idx.entries
             .emplace(row.key, Entry{row.key, offset, row.len, row.checksum})
             .second) {
      throw std::runtime_error("archive: duplicate segment key");
    }
    offset += row.len;
  }
  return idx;
}

std::size_t ArchiveIndex::extent(std::span<const std::uint8_t> head) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  ByteReader r(head);
  r.u32();  // magic, checked by parse()
  const bool checksums = r.u32() == kArchiveV4;
  if (checksums) r.bytes(5);  // base version + checksum algorithm
  const std::uint64_t header_length = r.varint();
  if (header_length > kMax / 2) throw std::runtime_error("archive: truncated");
  const std::size_t table = r.position() + header_length;
  const std::size_t rows = varint_end(head, table);
  if (rows == 0) return std::max(table, head.size()) + 1;
  const std::uint64_t count = ByteReader(head.subspan(table)).varint();
  const std::size_t min_row = checksums ? 17 : 9;
  if (count > (kMax - head.size()) / min_row - 1) {
    throw std::runtime_error("archive: bad segment count");
  }
  std::size_t at = rows;
  for (std::uint64_t i = 0; i < count; ++i) {
    // A row is key, length varint, then the checksum when present.
    const std::size_t len_end =
        at + 8 < head.size() ? varint_end(head, at + 8) : 0;
    if (len_end == 0 || len_end + (min_row - 9) > head.size()) {
      // `head` ends inside this row; every row left takes min_row or more.
      return std::max(at + (count - i) * min_row, head.size() + 1);
    }
    at = len_end + (min_row - 9);
  }
  return at;
}

void ArchiveIndex::verify(const Entry& entry,
                          std::span<const std::uint8_t> payload) const {
  if (!has_checksums) return;
  const std::uint64_t actual = checksum64(payload.data(), payload.size());
  if (actual != entry.checksum) {
    throw IntegrityError(SegmentId::from_key(entry.key, version),
                         entry.checksum, actual,
                         IntegrityError::Layer::kStorage);
  }
}

MemorySource::MemorySource(Bytes archive) : blob_(std::move(archive)) {
  index_ = ArchiveIndex::parse({blob_.data(), blob_.size()}, blob_.size());
}

const Bytes& MemorySource::header() {
  if (header_cache_.empty()) {
    header_cache_.assign(blob_.begin() + index_.header_offset,
                         blob_.begin() + index_.header_offset + index_.header_length);
  }
  if (!header_charged_) {
    // Header + segment table are the fixed cost of opening the archive.
    charge_bytes(index_.header_offset + index_.header_length);
    count_read_call();
    header_charged_ = true;
  }
  return header_cache_;
}

Bytes MemorySource::read_segment(SegmentId id) {
  auto it = index_.entries.find(id.key(index_.version));
  if (it == index_.entries.end()) throw std::runtime_error("archive: missing segment");
  // Verified (and only then charged) before the payload is handed out.
  index_.verify(it->second, {blob_.data() + it->second.offset, it->second.length});
  charge_bytes(it->second.length);
  count_read_call();
  return Bytes(blob_.begin() + it->second.offset,
               blob_.begin() + it->second.offset + it->second.length);
}

bool MemorySource::has_segment(SegmentId id) const {
  return index_.entries.contains(id.key(index_.version));
}

std::size_t MemorySource::segment_size(SegmentId id) const {
  auto it = index_.entries.find(id.key(index_.version));
  if (it == index_.entries.end()) throw std::runtime_error("archive: missing segment");
  return it->second.length;
}

namespace {

class File {
 public:
  File(const std::string& path, const char* mode) : f_(std::fopen(path.c_str(), mode)) {
    if (!f_) throw std::runtime_error("cannot open file: " + path);
  }
  ~File() {
    if (f_) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  std::FILE* get() const { return f_; }

  /// Flushes and closes; false when buffered data could not be written
  /// (a full device may accept fwrite and fail only here).
  bool close() {
    const bool flushed = std::fflush(f_) == 0;
    return std::fclose(std::exchange(f_, nullptr)) == 0 && flushed;
  }

  /// Size of a regular file.  A directory opens fine but seeking to its end
  /// reports a bogus huge size, so anything else is rejected.
  std::size_t size(const std::string& path) const {
    struct stat st {};
    if (::fstat(::fileno(f_), &st) != 0 || !S_ISREG(st.st_mode)) {
      throw std::runtime_error("not a regular file: " + path);
    }
    return static_cast<std::size_t>(st.st_size);
  }

 private:
  std::FILE* f_;
};

}  // namespace

FileSource::FileSource(std::string path) : path_(std::move(path)) {
  File f(path_, "rb");
  file_size_ = f.size(path_);
  // The index (magic/version/header/table) precedes all payloads.  Read a
  // prefix, then the index bytes it still lacks until extent() finds its end.
  Bytes head;
  for (std::size_t want = std::min(file_size_, kIndexProbeBytes);;) {
    const std::size_t have = head.size();
    head.resize(want);
    if (std::fread(head.data() + have, 1, want - have, f.get()) !=
        want - have) {
      throw std::runtime_error("archive: short read of index prefix");
    }
    want = ArchiveIndex::extent({head.data(), head.size()});
    if (want <= head.size()) break;
    if (want > file_size_) throw std::runtime_error("archive: truncated");
  }
  index_ = ArchiveIndex::parse({head.data(), head.size()}, file_size_);
}

const Bytes& FileSource::header() {
  if (!header_loaded_) {
    header_cache_ = read_range(index_.header_offset, index_.header_length);
    charge_bytes(index_.header_offset + index_.header_length);
    count_read_call();
    header_loaded_ = true;
  }
  return header_cache_;
}

Bytes FileSource::read_segment(SegmentId id) {
  auto it = index_.entries.find(id.key(index_.version));
  if (it == index_.entries.end()) throw std::runtime_error("archive: missing segment");
  Bytes payload = read_range(it->second.offset, it->second.length);
  // Verified (and only then charged) before the payload is handed out.
  index_.verify(it->second, {payload.data(), payload.size()});
  charge_bytes(it->second.length);
  count_read_call();
  return payload;
}

std::vector<Bytes> FileSource::read_many(std::span<const SegmentId> ids) {
  std::vector<Bytes> out(ids.size());
  if (ids.empty()) return out;

  // Resolve every id up front (so a missing segment throws before any read),
  // then visit the batch in file-offset order: requests usually arrive in
  // table order already, but plane segments of one level are planned
  // MSB-first while the file stores them LSB-first.
  struct Item {
    std::size_t idx;  // position in the request (and output) order
    std::size_t offset;
    std::size_t length;
    const ArchiveIndex::Entry* entry;
  };
  std::vector<Item> items;
  items.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto it = index_.entries.find(ids[i].key(index_.version));
    if (it == index_.entries.end()) {
      throw std::runtime_error("archive: missing segment");
    }
    items.push_back({i, it->second.offset, it->second.length, &it->second});
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.offset < b.offset; });

  File f(path_, "rb");
  Bytes buf;
  for (std::size_t i = 0; i < items.size();) {
    // Coalesce the run of segments whose ranges start within
    // kCoalesceGapBytes of the current range's end into one read; the gap
    // bytes are read through but never charged to bytes_read().
    std::size_t begin = items[i].offset;
    std::size_t end = begin + items[i].length;
    std::size_t j = i + 1;
    while (j < items.size() && items[j].offset <= end + kCoalesceGapBytes) {
      end = std::max(end, items[j].offset + items[j].length);
      ++j;
    }
    buf.resize(end - begin);
    std::fseek(f.get(), static_cast<long>(begin), SEEK_SET);
    if (!buf.empty() &&
        std::fread(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
      throw std::runtime_error("archive: short segment read");
    }
    count_read_call();
    count_coalesced_range();
    for (; i < j; ++i) {
      const Item& item = items[i];
      // Each slice is verified straight out of the coalesced buffer; a
      // corrupt segment throws here, before the batch charges anything.
      index_.verify(*item.entry,
                    {buf.data() + (item.offset - begin), item.length});
      out[item.idx].assign(buf.begin() + (item.offset - begin),
                           buf.begin() + (item.offset - begin) + item.length);
    }
  }
  // Charged only once the whole batch delivered: a throw mid-batch (missing
  // id, short read) must not inflate bytes_read() with payloads that were
  // never handed out, or the retrieved-volume metric — and the reader's
  // Σ bytes_new == bytes_total invariant across a retried execute() — drifts.
  for (const Item& item : items) charge_bytes(item.length);
  return out;
}

bool FileSource::has_segment(SegmentId id) const {
  return index_.entries.contains(id.key(index_.version));
}

std::size_t FileSource::segment_size(SegmentId id) const {
  auto it = index_.entries.find(id.key(index_.version));
  if (it == index_.entries.end()) throw std::runtime_error("archive: missing segment");
  return it->second.length;
}

Bytes FileSource::read_range(std::size_t offset, std::size_t length) const {
  File f(path_, "rb");
  std::fseek(f.get(), static_cast<long>(offset), SEEK_SET);
  Bytes out(length);
  if (length > 0 && std::fread(out.data(), 1, length, f.get()) != length) {
    throw std::runtime_error("archive: short segment read");
  }
  return out;
}

void write_file(const std::string& path, const Bytes& data) {
  // A device or pipe is written in place.  Anything else gets a durable temp
  // file beside it, renamed over it: a reader that mapped or opened the old
  // file keeps its inode, and a crash leaves the old or the new archive.
  struct stat st {};
  const bool in_place = ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
  static std::atomic<std::uint64_t> serial{0};
  const std::string tmp = in_place ? path
                                   : path + ".tmp" + std::to_string(::getpid()) +
                                         "." + std::to_string(serial++);
  const std::runtime_error failed("cannot write file: " + path);
  File f(tmp, "wb");
  bool ok = (data.empty() || std::fwrite(data.data(), 1, data.size(),
                                         f.get()) == data.size()) &&
            std::fflush(f.get()) == 0 &&
            (in_place || ::fsync(::fileno(f.get())) == 0);
  ok = f.close() && ok &&
       (in_place || ::rename(tmp.c_str(), path.c_str()) == 0);
  if (!ok && !in_place) ::unlink(tmp.c_str());
  if (!ok) throw failed;
  if (in_place) return;
  // Make the rename durable (EINVAL: the file system cannot sync a directory).
  const std::size_t slash = path.rfind('/');
  const int dir = ::open(
      slash == std::string::npos ? "." : path.substr(0, slash + 1).c_str(),
      O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir < 0) throw failed;
  ok = ::fsync(dir) == 0 || errno == EINVAL;
  if (!(::close(dir) == 0 && ok)) throw failed;
}

Bytes read_file(const std::string& path) {
  File f(path, "rb");
  const std::size_t n = f.size(path);
  Bytes out(n);
  if (n > 0 && std::fread(out.data(), 1, n, f.get()) != n) {
    throw std::runtime_error("cannot read file: " + path);
  }
  return out;
}

}  // namespace ipcomp
