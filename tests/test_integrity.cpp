// End-to-end segment integrity: the v4 checksum column and the trust
// boundaries that consult it.  Byte-flip property tests assert that a
// corrupted payload surfaces as a typed IntegrityError at the layer that
// caught it (kStorage for Memory/File reads, kCache for SegmentCache
// inserts) and never as silently wrong reconstruction; pre-v4 containers
// stay readable with one warning per process.  The kWire boundary is
// exercised in tests/test_net.cpp where a live daemon is available.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ipcomp.hpp"
#include "serve/cache.hpp"
#include "test_util.hpp"
#include "util/checksum.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

using testutil::smooth_field;

Bytes make_archive(const NdArray<double>& field, bool integrity) {
  Options opt;
  opt.error_bound = 1e-6;
  opt.relative = false;
  opt.block_side = 8;
  opt.progressive_threshold = 256;  // real bitplane segments at this size
  opt.integrity = integrity;
  return compress(field.const_view(), opt);
}

std::string write_temp(const Bytes& blob, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  write_file(path, blob);
  return path;
}

// Must stay the first test in this binary: the pre-v4 warning fires once per
// process, so no earlier test may open a pre-v4 container.
TEST(Integrity, PreV4ContainerWarnsOncePerProcess) {
  auto field = smooth_field(Dims{12, 10, 8}, 11, 0.05);
  const Bytes legacy = make_archive(field, /*integrity=*/false);

  ::testing::internal::CaptureStderr();
  MemorySource first{Bytes(legacy)};
  MemorySource second{Bytes(legacy)};
  const std::string err = ::testing::internal::GetCapturedStderr();

  const std::string needle = "predates per-segment checksums";
  const std::size_t at = err.find(needle);
  ASSERT_NE(at, std::string::npos) << err;
  // Once, not once per open.
  EXPECT_EQ(err.find(needle, at + 1), std::string::npos) << err;

  // The data still reads — unverified, with no checksum column to consult.
  ProgressiveReader<double> reader(first);
  reader.retrieve(Request::full());
  EXPECT_LE(testutil::linf(field.const_view(), reader.data()), 1e-6);
  for (const SegmentId& id : second.segment_ids()) {
    EXPECT_FALSE(second.segment_checksum(id).has_value());
  }
}

TEST(Integrity, V4ContainerRoundTripsAndExposesChecksums) {
  auto field = smooth_field(Dims{20, 16, 12}, 12, 0.05);
  const Bytes blob = make_archive(field, /*integrity=*/true);

  const ArchiveIndex idx = ArchiveIndex::parse({blob.data(), blob.size()},
                                               blob.size());
  EXPECT_EQ(idx.container, kArchiveV4);
  EXPECT_TRUE(idx.has_checksums);
  EXPECT_GE(idx.version, kArchiveV1);
  EXPECT_LE(idx.version, kArchiveV3);

  MemorySource src{Bytes(blob)};
  // The wrapper is transparent above the source layer: version() reports the
  // base version the reader dispatch keys off.
  EXPECT_EQ(src.version(), idx.version);
  const std::vector<SegmentId> ids = src.segment_ids();
  ASSERT_FALSE(ids.empty());
  for (const SegmentId& id : ids) {
    const auto recorded = src.segment_checksum(id);
    ASSERT_TRUE(recorded.has_value());
    const Bytes payload = src.read_segment(id);
    EXPECT_EQ(checksum64(payload.data(), payload.size()), *recorded);
  }

  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  EXPECT_LE(testutil::linf(field.const_view(), reader.data()), 1e-6);
}

TEST(Integrity, V4AndLegacyDecodeIdentically) {
  auto field = smooth_field(Dims{16, 14, 10}, 13, 0.08);
  const Bytes v4 = make_archive(field, true);
  const Bytes legacy = make_archive(field, false);
  ASSERT_GT(v4.size(), legacy.size());  // the checksum column costs bytes

  MemorySource a{Bytes(v4)}, b{Bytes(legacy)};
  ProgressiveReader<double> ra(a), rb(b);
  for (const Request& req :
       {Request::error_bound(1e-3), Request::bytes(2000), Request::full()}) {
    ra.retrieve(req);
    rb.retrieve(req);
    ASSERT_EQ(ra.data(), rb.data());
  }
}

TEST(Integrity, Checksum64Properties) {
  Rng rng(99);
  Bytes buf(4096);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());

  const std::uint64_t base = checksum64(buf.data(), buf.size());
  EXPECT_EQ(checksum64(buf.data(), buf.size()), base);  // deterministic
  EXPECT_NE(checksum64(buf.data(), buf.size(), 1), base);  // seed-sensitive
  EXPECT_NE(checksum64(buf.data(), buf.size() - 1), base);  // length-sensitive
  // Single-bit avalanche at every lane phase of the word-parallel kernel.
  for (std::size_t at : {std::size_t{0}, std::size_t{7}, std::size_t{31},
                         std::size_t{32}, std::size_t{4095}}) {
    buf[at] ^= 0x10;
    EXPECT_NE(checksum64(buf.data(), buf.size()), base) << "byte " << at;
    buf[at] ^= 0x10;
  }
  EXPECT_EQ(checksum64(buf.data(), buf.size()), base);
  EXPECT_EQ(checksum64(buf.data(), 0), checksum64(buf.data() + 1, 0));  // empty
}

/// Flip one bit of one payload byte in a copy of `blob`; returns the id of
/// the corrupted segment.
SegmentId flip_payload_bit(Bytes& blob, const ArchiveIndex& idx,
                           std::size_t victim, std::size_t byte_jitter) {
  auto it = idx.entries.begin();
  std::advance(it, victim % idx.entries.size());
  const ArchiveIndex::Entry& e = it->second;
  blob[e.offset + byte_jitter % e.length] ^= 1u << (byte_jitter % 8);
  return SegmentId::from_key(e.key, idx.version);
}

// Property test: any single flipped payload bit, in any segment, raises
// IntegrityError at the storage layer naming that segment — never a wrong
// reconstruction, never a crash.
TEST(Integrity, ByteFlipRaisesStorageIntegrityErrorForThatSegment) {
  auto field = smooth_field(Dims{20, 16, 12}, 14, 0.05);
  const Bytes pristine = make_archive(field, true);
  const ArchiveIndex idx =
      ArchiveIndex::parse({pristine.data(), pristine.size()}, pristine.size());
  ASSERT_GT(idx.entries.size(), 4u);

  Rng rng(1414);
  for (int trial = 0; trial < 24; ++trial) {
    Bytes blob = pristine;
    const SegmentId victim = flip_payload_bit(
        blob, idx, static_cast<std::size_t>(rng.next_u64()),
        static_cast<std::size_t>(rng.next_u64()));

    MemorySource src{std::move(blob)};
    try {
      src.read_segment(victim);
      FAIL() << "corrupted segment delivered without IntegrityError";
    } catch (const IntegrityError& e) {
      EXPECT_EQ(e.layer(), IntegrityError::Layer::kStorage);
      EXPECT_EQ(e.segment(), victim);
      EXPECT_NE(e.expected(), e.actual());
      EXPECT_EQ(e.expected(), *src.segment_checksum(victim));
    }
    // Sibling segments are unaffected — verification is per segment.
    for (const SegmentId& id : src.segment_ids()) {
      if (id == victim) continue;
      EXPECT_NO_THROW(src.read_segment(id));
      break;  // one sibling per trial keeps the property test fast
    }
  }
}

TEST(Integrity, FileSourceVerifiesEveryPhysicalRead) {
  auto field = smooth_field(Dims{16, 14, 10}, 15, 0.05);
  Bytes blob = make_archive(field, true);
  const ArchiveIndex idx =
      ArchiveIndex::parse({blob.data(), blob.size()}, blob.size());

  const SegmentId victim = flip_payload_bit(blob, idx, 3, 17);
  const std::string path = write_temp(blob, "ipc_integrity_flip.ipc");

  FileSource src(path);
  try {
    src.read_segment(victim);
    FAIL() << "corrupted segment delivered without IntegrityError";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.layer(), IntegrityError::Layer::kStorage);
    EXPECT_EQ(e.segment(), victim);
  }
  // Batched fetches are all-or-nothing: the corrupted member poisons the
  // batch and no bytes are charged for undelivered payloads.
  const std::size_t before = src.stats().bytes_read;
  std::vector<SegmentId> all = src.segment_ids();
  EXPECT_THROW(src.read_many(all), IntegrityError);
  EXPECT_EQ(src.stats().bytes_read, before);
}

TEST(Integrity, UnknownChecksumAlgorithmRejected) {
  auto field = smooth_field(Dims{12, 10, 8}, 16, 0.05);
  Bytes blob = make_archive(field, true);
  // v4 layout: magic(4) | container u32(4) | base u32(4) | algo u8.
  blob[12] = 0x7F;
  EXPECT_THROW(MemorySource{std::move(blob)}, std::runtime_error);
}

TEST(Integrity, CacheInsertIsATrustBoundary) {
  auto field = smooth_field(Dims{12, 10, 8}, 17, 0.05);
  const Bytes blob = make_archive(field, true);
  MemorySource src{Bytes(blob)};
  const std::vector<SegmentId> ids = src.segment_ids();
  ASSERT_GE(ids.size(), 2u);

  SegmentCache cache(1 << 20);
  const SegmentId good_id = ids[0];
  const CacheKey key{.archive = 7,
                     .segment = good_id.key(src.version())};
  Bytes payload = src.read_segment(good_id);
  const std::uint64_t expected = *src.segment_checksum(good_id);

  // A verified insert caches normally.
  cache.put(key, payload, expected, src.version());
  Bytes out;
  EXPECT_TRUE(cache.get(key, out));
  EXPECT_EQ(out, payload);

  // A corrupted payload is rejected at the boundary and never cached.
  const CacheKey key2{.archive = 7, .segment = ids[1].key(src.version())};
  Bytes bad = src.read_segment(ids[1]);
  bad[bad.size() / 2] ^= 0x40;
  try {
    cache.put(key2, bad, *src.segment_checksum(ids[1]), src.version());
    FAIL() << "corrupted payload accepted into the cache";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.layer(), IntegrityError::Layer::kCache);
    EXPECT_EQ(e.segment(), ids[1]);
  }
  EXPECT_FALSE(cache.get(key2, out));
}

// The storage fault decorator composed with the cache boundary: a payload
// corrupted *between* the physical read and the insert (FaultySource flips
// it after MemorySource verified it) cannot be replayed to later sessions.
TEST(Integrity, FaultySourceCorruptionCaughtBeforeCaching) {
  auto field = smooth_field(Dims{12, 10, 8}, 18, 0.05);
  const Bytes blob = make_archive(field, true);

  auto plan = std::make_shared<FaultPlan>(5);
  plan->corrupt_read_at(0, /*byte=*/5, /*bit=*/2);
  FaultySource src(std::make_unique<MemorySource>(Bytes(blob)), plan);

  const std::vector<SegmentId> ids = src.segment_ids();
  ASSERT_FALSE(ids.empty());
  const SegmentId id = ids[0];
  // The decorator forwards the checksum column...
  const auto expected = src.segment_checksum(id);
  ASSERT_TRUE(expected.has_value());
  // ...and delivers the corrupted payload (the fault models rot past the
  // storage boundary), which the cache insert then refuses.
  Bytes corrupted = src.read_segment(id);
  EXPECT_NE(checksum64(corrupted.data(), corrupted.size()), *expected);

  SegmentCache cache(1 << 20);
  const CacheKey key{.archive = 1, .segment = id.key(src.version())};
  try {
    cache.put(key, corrupted, expected, src.version());
    FAIL() << "rotted payload accepted into the cache";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.layer(), IntegrityError::Layer::kCache);
    EXPECT_EQ(e.segment(), id);
    EXPECT_EQ(e.expected(), *expected);
  }

  // fail-after-N storage faults surface as read errors, not bad data.
  auto failing = std::make_shared<FaultPlan>(6);
  failing->fail_reads_after(0);
  FaultySource dead(std::make_unique<MemorySource>(Bytes(blob)), failing);
  EXPECT_THROW(dead.read_segment(id), std::runtime_error);
}

}  // namespace
}  // namespace ipcomp
