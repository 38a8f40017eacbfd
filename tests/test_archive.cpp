#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "core/compressor.hpp"
#include "core/progressive_reader.hpp"
#include "io/archive.hpp"
#include "io/mmap_source.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

Bytes make_payload(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

TEST(Archive, SegmentIdKeyRoundTrip) {
  SegmentId id{3, 7, 29};
  EXPECT_EQ(SegmentId::from_key(id.key(kArchiveV1), kArchiveV1), id);
}

TEST(Archive, BuildAndReadBack) {
  ArchiveBuilder b;
  b.set_header(Bytes{1, 2, 3, 4});
  b.add_segment({0, 1, 0}, make_payload(100, 0xAA));
  b.add_segment({1, 1, 5}, make_payload(50, 0xBB));
  b.add_segment({1, 2, 31}, make_payload(0, 0));
  Bytes blob = b.finish();

  MemorySource src(std::move(blob));
  EXPECT_EQ(src.header(), (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(src.read_segment({0, 1, 0}), make_payload(100, 0xAA));
  EXPECT_EQ(src.read_segment({1, 1, 5}), make_payload(50, 0xBB));
  EXPECT_EQ(src.read_segment({1, 2, 31}), Bytes{});
  EXPECT_TRUE(src.has_segment({1, 1, 5}));
  EXPECT_FALSE(src.has_segment({1, 1, 6}));
  EXPECT_EQ(src.segment_size({0, 1, 0}), 100u);
}

TEST(Archive, MissingSegmentThrows) {
  ArchiveBuilder b;
  b.set_header({});
  Bytes blob = b.finish();
  MemorySource src(std::move(blob));
  EXPECT_THROW(src.read_segment({9, 9, 9}), std::runtime_error);
  EXPECT_THROW(src.segment_size({9, 9, 9}), std::runtime_error);
}

TEST(Archive, BuilderRejectsDuplicateSegmentId) {
  // Regression: a silently accepted duplicate grew order_ while the map kept
  // one entry, so finish() paired the duplicated table row with the wrong
  // payload range.
  ArchiveBuilder b;
  b.set_header(Bytes{1});
  b.add_segment({0, 1, 0}, make_payload(8, 0xAA));
  EXPECT_THROW(b.add_segment({0, 1, 0}, make_payload(8, 0xBB)),
               std::invalid_argument);
  // The builder is still usable: the first payload and new ids survive.
  b.add_segment({1, 1, 0}, make_payload(4, 0xCC));
  MemorySource src(b.finish());
  EXPECT_EQ(src.read_segment({0, 1, 0}), make_payload(8, 0xAA));
  EXPECT_EQ(src.read_segment({1, 1, 0}), make_payload(4, 0xCC));
}

TEST(Archive, ReadManyMatchesPerSegmentReads) {
  ArchiveBuilder b;
  b.set_header(make_payload(10, 1));
  std::vector<SegmentId> ids;
  for (std::uint32_t i = 0; i < 12; ++i) {
    ids.push_back({1, static_cast<std::uint16_t>(i / 4 + 1), i % 4});
    b.add_segment(ids.back(), make_payload(100 + 37 * i, static_cast<std::uint8_t>(i)));
  }
  Bytes blob = b.finish();

  // Request in an order unlike the table's; payloads must come back in
  // request order, identical to per-segment reads, with identical byte
  // accounting (the default implementation is the per-id loop).
  std::vector<SegmentId> order = {ids[7], ids[0], ids[11], ids[3], ids[7]};
  MemorySource a{Bytes(blob)};
  MemorySource c{Bytes(blob)};
  auto batch = a.read_many(order);
  ASSERT_EQ(batch.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(batch[i], c.read_segment(order[i])) << i;
  }
  EXPECT_EQ(a.stats().bytes_read, c.stats().bytes_read);
  EXPECT_THROW(a.read_many(std::vector<SegmentId>{{9, 9, 9}}),
               std::runtime_error);
  EXPECT_TRUE(a.read_many(std::vector<SegmentId>{}).empty());
}

TEST(Archive, FileSourceReadManyCoalescesAdjacentRanges) {
  Rng rng(21);
  ArchiveBuilder b;
  b.set_header(make_payload(32, 1));
  std::vector<SegmentId> ids;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ids.push_back({1, 1, i});
    Bytes payload(200 + rng.uniform_u64(400));
    for (auto& x : payload) x = static_cast<std::uint8_t>(rng.next_u64());
    b.add_segment(ids.back(), std::move(payload));
  }
  Bytes blob = b.finish();
  std::string path = ::testing::TempDir() + "/ipcomp_read_many_test.bin";
  write_file(path, blob);

  // All 16 segments are adjacent in the file (table order), so the batch —
  // requested in scrambled order — must collapse to one physical read, with
  // only the payload bytes charged and payloads identical to MemorySource.
  std::vector<SegmentId> order;
  for (std::uint32_t i = 0; i < 16; ++i) order.push_back(ids[(7 * i + 3) % 16]);
  FileSource fsrc(path);
  MemorySource msrc{Bytes(blob)};
  const std::size_t calls_before = fsrc.stats().read_calls;
  auto batch = fsrc.read_many(order);
  EXPECT_EQ(fsrc.stats().read_calls, calls_before + 1);
  EXPECT_EQ(fsrc.stats().coalesced_ranges, 1u);
  std::size_t payload_bytes = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(batch[i], msrc.read_segment(order[i])) << i;
    payload_bytes += batch[i].size();
  }
  EXPECT_EQ(fsrc.stats().bytes_read, payload_bytes);  // no gap bytes charged

  // A segment far past the gap threshold forces a second range.
  ArchiveBuilder b2;
  b2.set_header(make_payload(8, 2));
  b2.add_segment({1, 1, 0}, make_payload(64, 0x11));
  b2.add_segment({1, 1, 1}, make_payload(3 * kCoalesceGapBytes, 0x22));
  b2.add_segment({1, 1, 2}, make_payload(64, 0x33));
  write_file(path, b2.finish());
  FileSource far_src(path);
  auto far = far_src.read_many(
      std::vector<SegmentId>{{1, 1, 0}, {1, 1, 2}});
  EXPECT_EQ(far_src.stats().coalesced_ranges, 2u);
  EXPECT_EQ(far[0], make_payload(64, 0x11));
  EXPECT_EQ(far[1], make_payload(64, 0x33));
  std::remove(path.c_str());
}

TEST(Archive, BytesReadCountsOnlyTouchedSegments) {
  ArchiveBuilder b;
  b.set_header(make_payload(10, 1));
  b.add_segment({0, 1, 0}, make_payload(1000, 2));
  b.add_segment({0, 2, 0}, make_payload(3000, 3));
  Bytes blob = b.finish();
  std::size_t total = blob.size();

  MemorySource src(std::move(blob));
  EXPECT_EQ(src.stats().bytes_read, 0u);
  src.header();
  std::size_t header_cost = src.stats().bytes_read;
  EXPECT_GT(header_cost, 10u);          // header + index
  EXPECT_LT(header_cost, total - 3500); // but not the payloads
  src.header();
  EXPECT_EQ(src.stats().bytes_read, header_cost);  // charged once
  src.read_segment({0, 1, 0});
  EXPECT_EQ(src.stats().bytes_read, header_cost + 1000);
  EXPECT_EQ(src.total_size(), total);
}

TEST(Archive, CorruptMagicRejected) {
  ArchiveBuilder b;
  b.set_header({});
  Bytes blob = b.finish();
  blob[0] ^= 0xFF;
  EXPECT_THROW(MemorySource src(std::move(blob)), std::runtime_error);
}

TEST(Archive, ForgedSegmentCountRejected) {
  ArchiveBuilder b;
  b.set_header({});
  Bytes blob = b.finish();
  // The segment-count varint is the final byte of a segmentless archive;
  // replace it with a huge ten-byte varint.  The parser must throw instead
  // of letting the count drive a multi-terabyte reserve().
  ASSERT_EQ(blob.back(), 0x00);
  blob.pop_back();
  blob.insert(blob.end(), 9, 0xFF);
  blob.push_back(0x01);
  EXPECT_THROW(MemorySource src(std::move(blob)), std::runtime_error);
}

TEST(Archive, ForgedSegmentLengthRejected) {
  ArchiveBuilder b;
  b.set_header({});
  b.add_segment({0, 1, 0}, make_payload(4, 0xCD));
  Bytes blob = b.finish();
  // Single 4-byte segment: the length varint is the byte before the payload.
  ASSERT_EQ(blob[blob.size() - 5], 0x04);
  Bytes forged(blob.begin(), blob.end() - 5);
  forged.insert(forged.end(), 9, 0xFF);
  forged.push_back(0x01);  // len ~ 2^63: offset += len would wrap
  forged.insert(forged.end(), blob.end() - 4, blob.end());
  EXPECT_THROW(MemorySource src(std::move(forged)), std::runtime_error);
}

TEST(Archive, FileSourceMatchesMemorySource) {
  Rng rng(8);
  ArchiveBuilder b;
  Bytes header(200);
  for (auto& x : header) x = static_cast<std::uint8_t>(rng.next_u64());
  b.set_header(header);
  std::vector<std::pair<SegmentId, Bytes>> segs;
  for (int i = 0; i < 20; ++i) {
    SegmentId id{1, static_cast<std::uint16_t>(i / 5 + 1),
                 static_cast<std::uint32_t>(i % 5)};
    Bytes payload(rng.uniform_u64(5000));
    for (auto& x : payload) x = static_cast<std::uint8_t>(rng.next_u64());
    b.add_segment(id, payload);
    segs.emplace_back(id, std::move(payload));
  }
  Bytes blob = b.finish();

  std::string path = ::testing::TempDir() + "/ipcomp_archive_test.bin";
  write_file(path, blob);

  FileSource fsrc(path);
  MemorySource msrc(std::move(blob));
  EXPECT_EQ(fsrc.header(), msrc.header());
  for (auto& [id, payload] : segs) {
    EXPECT_EQ(fsrc.read_segment(id), payload);
    EXPECT_EQ(fsrc.segment_size(id), payload.size());
  }
  EXPECT_EQ(fsrc.total_size(), msrc.total_size());
  std::remove(path.c_str());
}

TEST(Archive, FileRoundTripHelpers) {
  std::string path = ::testing::TempDir() + "/ipcomp_file_test.bin";
  Bytes data = {9, 8, 7, 6};
  write_file(path, data);
  EXPECT_EQ(read_file(path), data);
  std::remove(path.c_str());
  EXPECT_THROW(read_file(path), std::runtime_error);
}

TEST(Archive, WriteFileReportsBufferedWriteFailure) {
  // /dev/full accepts open and buffered writes and fails on flush: a small
  // write only errors at close, a large one already in fwrite.  (A device is
  // written in place; it cannot be replaced by rename.)
  if (std::FILE* probe = std::fopen("/dev/full", "wb")) {
    std::fclose(probe);
  } else {
    GTEST_SKIP() << "/dev/full unavailable";
  }
  EXPECT_THROW(write_file("/dev/full", Bytes(10, 1)), std::runtime_error);
  EXPECT_THROW(write_file("/dev/full", Bytes(100000, 1)), std::runtime_error);
}

// write_file replaces a file by rename, so a source that mapped the old
// file keeps its inode and still reads every one of its own payloads.  An
// in-place truncate would leave the mapping past the new end of file, and
// the next read would fault (SIGBUS).
TEST(Archive, WriteFileKeepsMappedReadersIntact) {
  const auto build = [](std::size_t n, std::uint8_t fill) {
    ArchiveBuilder b;
    b.set_header(Bytes{1, 2, 3});
    for (std::uint32_t i = 0; i < 8; ++i) {
      b.add_segment({1, 1, i}, Bytes(n, static_cast<std::uint8_t>(fill + i)));
    }
    return b.finish();
  };
  const std::string path = ::testing::TempDir() + "/ipcomp_replace_mapped.bin";
  write_file(path, build(64 << 10, 10));
  MmapSource mapped(path);
  const Bytes smaller = build(16, 50);
  write_file(path, smaller);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(mapped.read_segment({1, 1, i}),
              Bytes(64 << 10, static_cast<std::uint8_t>(10 + i)));
  }
  EXPECT_EQ(read_file(path), smaller);
  std::remove(path.c_str());
}

// A FileSource reads through the descriptor it parsed its index from.  When
// write_file replaces the path with another archive mid-retrieval, the
// reader keeps fetching its own archive's payloads at its own index's
// offsets, with or without per-segment checksums to notice a mix-up.
TEST(Archive, FileSourceKeepsReadingReplacedArchive) {
  for (const bool integrity : {true, false}) {
    Options opt;
    opt.block_side = 16;
    opt.progressive_threshold = 256;
    opt.integrity = integrity;
    const Bytes original = compress(
        testutil::smooth_field(Dims{32, 32, 32}, 5, 0.1).const_view(), opt);
    const Bytes other = compress(
        testutil::smooth_field(Dims{48, 40, 40}, 6, 0.3).const_view(), opt);
    const std::string path =
        ::testing::TempDir() + "/ipcomp_replace_file_source.ipc";
    write_file(path, original);
    FileSource file(path);
    ProgressiveReader<double> reader(file);
    reader.retrieve(Request::error_bound(1e3 * reader.compression_eb()));
    write_file(path, other);
    const RetrievalStats st = reader.retrieve(Request::full());
    EXPECT_GT(st.bytes_new, 0u) << "integrity " << integrity;

    MemorySource memory{Bytes(original)};
    ProgressiveReader<double> want(memory);
    want.retrieve(Request::full());
    ASSERT_EQ(reader.data().size(), want.data().size());
    EXPECT_EQ(std::memcmp(reader.data().data(), want.data().data(),
                          want.data().size() * sizeof(double)),
              0)
        << "integrity " << integrity;
    std::remove(path.c_str());
  }
}

/// An archive of `n` random payloads (up to 3000 bytes) under one header.
struct RandomArchive {
  Bytes blob;
  std::vector<std::pair<SegmentId, Bytes>> segs;
};

RandomArchive random_archive(Rng& rng, std::uint32_t n) {
  ArchiveBuilder b;
  b.set_header(make_payload(64, 7));
  RandomArchive out;
  for (std::uint32_t i = 0; i < n; ++i) {
    const SegmentId id{1, static_cast<std::uint16_t>(i / 8 + 1), i % 8};
    Bytes payload(1 + rng.uniform_u64(3000));
    for (auto& x : payload) x = static_cast<std::uint8_t>(rng.next_u64());
    b.add_segment(id, payload);
    out.segs.emplace_back(id, std::move(payload));
  }
  out.blob = b.finish();
  return out;
}

TEST(Archive, FileSourceMissingFileThrows) {
  const std::string path = ::testing::TempDir() + "/ipcomp_no_such_archive.ipc";
  std::remove(path.c_str());
  EXPECT_THROW(FileSource{path}, std::runtime_error);
}

// Unlinking the path leaves the open descriptor's inode alive: every
// payload still reads back.
TEST(Archive, FileSourceKeepsReadingUnlinkedArchive) {
  Rng rng(31);
  const RandomArchive a = random_archive(rng, 24);
  const std::string path = ::testing::TempDir() + "/ipcomp_unlinked.bin";
  write_file(path, a.blob);
  FileSource fsrc(path);
  ASSERT_EQ(std::remove(path.c_str()), 0);
  EXPECT_EQ(fsrc.header(), make_payload(64, 7));
  for (const auto& [id, payload] : a.segs) EXPECT_EQ(fsrc.read_segment(id), payload);
  std::vector<SegmentId> ids;
  for (const auto& s : a.segs) ids.push_back(s.first);
  const auto batch = fsrc.read_many(ids);
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(batch[i], a.segs[i].second);
}

// A file truncated in place under an open source (not replaced) loses its
// tail: a read that reaches past the new end throws rather than returning
// short or stale bytes, and segments wholly before the cut still read.
TEST(Archive, FileSourceTruncatedInPlaceThrows) {
  Rng rng(32);
  const RandomArchive a = random_archive(rng, 24);
  const std::string path = ::testing::TempDir() + "/ipcomp_truncated_in_place.bin";
  write_file(path, a.blob);
  FileSource fsrc(path);
  (void)fsrc.header();
  ASSERT_EQ(::truncate(path.c_str(), static_cast<::off_t>(a.blob.size() / 2)), 0);

  std::size_t intact = 0, refused = 0;
  std::vector<SegmentId> ids;
  for (const auto& [id, payload] : a.segs) {
    ids.push_back(id);
    try {
      EXPECT_EQ(fsrc.read_segment(id), payload);
      ++intact;
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  EXPECT_GT(intact, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_THROW(fsrc.read_many(ids), std::runtime_error);
  std::remove(path.c_str());
}

/// The lowest descriptor number open() hands out next.
int lowest_free_fd() {
  const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ::close(fd);
  return fd;
}

// The source holds one descriptor for its lifetime and gives it back, also
// when the constructor throws on a file that is not an archive.  A leaked
// descriptor would take the lowest free number.
TEST(Archive, FileSourceReleasesItsDescriptor) {
  Rng rng(33);
  const std::string path = ::testing::TempDir() + "/ipcomp_fd_archive.bin";
  const std::string junk = ::testing::TempDir() + "/ipcomp_fd_junk.bin";
  write_file(path, random_archive(rng, 8).blob);
  write_file(junk, make_payload(100, 0x5a));
  const int before = lowest_free_fd();
  ASSERT_GE(before, 0);
  for (int i = 0; i < 8; ++i) {
    FileSource fsrc(path);
    EXPECT_FALSE(fsrc.read_segment({1, 1, 0}).empty());
    EXPECT_THROW(FileSource{junk}, std::runtime_error);
    EXPECT_THROW(FileSource{::testing::TempDir()}, std::runtime_error);
  }
  EXPECT_EQ(lowest_free_fd(), before);
  std::remove(path.c_str());
  std::remove(junk.c_str());
}

// Fetches overlap from several threads on one source (pread leaves the file
// offset alone): every payload matches, and once all fetches are done the
// byte count is exactly the payload bytes requested.
TEST(Archive, FileSourceConcurrentReadsMatchMemorySource) {
  Rng rng(34);
  const RandomArchive a = random_archive(rng, 40);
  const std::string path = ::testing::TempDir() + "/ipcomp_concurrent_reads.bin";
  write_file(path, a.blob);
  FileSource fsrc(path);
  (void)fsrc.header();
  const std::size_t header_bytes = fsrc.stats().bytes_read;

  constexpr int kThreads = 4, kRounds = 25;
  std::vector<std::size_t> charged(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<SegmentId> ids;
        std::vector<const Bytes*> want;
        for (std::size_t i = (t + r) % 3; i < a.segs.size(); i += 1 + (t + r) % 4) {
          ids.push_back(a.segs[i].first);
          want.push_back(&a.segs[i].second);
        }
        const auto got = fsrc.read_many(ids);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          EXPECT_EQ(got[i], *want[i]) << "thread " << t << " round " << r;
          charged[t] += want[i]->size();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  std::size_t total = header_bytes;
  for (std::size_t c : charged) total += c;
  EXPECT_EQ(fsrc.stats().bytes_read, total);
  std::remove(path.c_str());
}

TEST(Archive, DirectoryIsNotAFile) {
  // A directory opens for reading but reports a bogus huge size; it must be
  // a clean runtime_error, not an allocation of that size.
  const std::string dir = ::testing::TempDir();
  EXPECT_THROW(read_file(dir), std::runtime_error);
  EXPECT_THROW(FileSource{dir}, std::runtime_error);
}

TEST(Archive, ManySegmentsIndexedCorrectly) {
  ArchiveBuilder b;
  b.set_header({});
  for (std::uint32_t i = 0; i < 500; ++i) {
    b.add_segment({2, static_cast<std::uint16_t>(i % 16), i},
                  Bytes(i % 37, static_cast<std::uint8_t>(i)));
  }
  MemorySource src(b.finish());
  for (std::uint32_t i = 0; i < 500; ++i) {
    SegmentId id{2, static_cast<std::uint16_t>(i % 16), i};
    EXPECT_EQ(src.read_segment(id), Bytes(i % 37, static_cast<std::uint8_t>(i)));
  }
}

// FileSource reads the index to its exact end, not a fixed prefix: a
// segment table of several MB opens through it as through the mapping.
TEST(Archive, FileSourceReadsLargeSegmentTable) {
  ArchiveBuilder b;
  b.set_version(kArchiveV2);
  b.set_integrity(true);
  b.set_header({});
  constexpr std::uint32_t kSegments = 300000;
  for (std::uint32_t i = 0; i < kSegments; ++i) {
    b.add_segment({1, 1, 0, i}, Bytes(1, static_cast<std::uint8_t>(i)));
  }
  Bytes blob = b.finish();
  ASSERT_GT(blob.size(), 5000000u);
  const std::string path = ::testing::TempDir() + "/ipcomp_large_table.bin";
  write_file(path, blob);

  FileSource fsrc(path);
  MmapSource msrc(path);
  EXPECT_EQ(fsrc.segment_ids(), msrc.segment_ids());
  const std::vector<SegmentId> some = {{1, 1, 0, 0},
                                       {1, 1, 0, kSegments / 2},
                                       {1, 1, 0, kSegments - 1}};
  EXPECT_EQ(fsrc.read_many(some), msrc.read_many(some));
  std::remove(path.c_str());
}

// Headers and tables that run past FileSource's first read, with two-byte
// length varints so the read ends inside table rows.
TEST(Archive, FileSourceReadsIndexPastFirstRead) {
  Rng rng(9);
  for (std::size_t header_size : {std::size_t{40000}, std::size_t{100000}}) {
    ArchiveBuilder b;
    Bytes header(header_size);
    for (auto& x : header) x = static_cast<std::uint8_t>(rng.next_u64());
    b.set_header(header);
    std::vector<std::pair<SegmentId, Bytes>> segs;
    for (std::uint32_t i = 0; i < 4000; ++i) {
      Bytes payload(130 + i % 50, static_cast<std::uint8_t>(i));
      b.add_segment({1, 1, i}, payload);
      segs.emplace_back(SegmentId{1, 1, i}, std::move(payload));
    }
    Bytes blob = b.finish();
    const std::string path = ::testing::TempDir() + "/ipcomp_long_index.bin";
    write_file(path, blob);

    FileSource fsrc(path);
    MemorySource msrc(std::move(blob));
    EXPECT_EQ(fsrc.header(), msrc.header()) << header_size;
    EXPECT_EQ(fsrc.segment_ids(), msrc.segment_ids()) << header_size;
    for (const auto& [id, payload] : segs) {
      ASSERT_EQ(fsrc.read_segment(id), payload) << header_size;
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace ipcomp
