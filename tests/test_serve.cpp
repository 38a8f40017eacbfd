// Multi-tenant serve layer: SegmentCache LRU behavior, PooledSource batch
// merging, ArchiveSet open-once sharing, Session accounting/quotas — and the
// ArchiveSet stress test the tsan preset runs: N threads x M sessions over
// one shared archive with mixed plan/execute/region traffic, byte-identical
// to a serial reader, with the cache capacity invariant sampled live from a
// monitor thread.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ipcomp.hpp"
#include "test_util.hpp"
#include "util/checksum.hpp"

namespace ipcomp {
namespace {

using testutil::linf;
using testutil::smooth_field;

Bytes make_archive(const NdArray<double>& field, double eb, unsigned block_side) {
  Options opt;
  opt.error_bound = eb;
  opt.relative = false;
  opt.block_side = block_side;
  // Small blocks would otherwise store every level whole (non-progressive);
  // lower the threshold so the archives carry real bitplane segments and
  // partial-fidelity plans price below full.
  opt.progressive_threshold = 256;
  return compress(field.const_view(), opt);
}

// ---- SegmentCache ---------------------------------------------------------

Bytes payload_of(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

/// Cache key in archive 0 (keys are namespaced per archive serial).
CacheKey seg(std::uint64_t k) { return {0, k}; }

TEST(SegmentCache, LruEvictionOrderAndCounters) {
  SegmentCache cache(/*capacity_bytes=*/100);
  Bytes out;

  EXPECT_FALSE(cache.get(seg(1), out));  // miss counted
  cache.put(seg(1), payload_of(40, 0xA1));
  cache.put(seg(2), payload_of(40, 0xA2));
  EXPECT_TRUE(cache.get(seg(1), out));  // 1 is now most-recent
  EXPECT_EQ(out, payload_of(40, 0xA1));

  cache.put(seg(3), payload_of(40, 0xA3));  // evicts 2 (LRU), not 1
  EXPECT_TRUE(cache.get(seg(1), out));
  EXPECT_TRUE(cache.get(seg(3), out));
  EXPECT_FALSE(cache.get(seg(2), out));

  CacheStats s = cache.stats();
  EXPECT_EQ(s.capacity_bytes, 100u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.resident_bytes, 80u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.hits, 3u);  // get(1) x2 after the puts, get(3)
  EXPECT_EQ(s.misses, 2u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.6);
  EXPECT_LE(s.resident_bytes, s.capacity_bytes);
}

TEST(SegmentCache, OversizedPayloadIsNotCachedAndCapacityHolds) {
  SegmentCache cache(64);
  cache.put(seg(7), payload_of(65, 0xFF));  // larger than the whole capacity
  Bytes out;
  EXPECT_FALSE(cache.get(seg(7), out));
  EXPECT_EQ(cache.stats().resident_bytes, 0u);

  // Refreshing an existing key must not double-count resident bytes.
  cache.put(seg(8), payload_of(30, 0x08));
  cache.put(seg(8), payload_of(30, 0x08));
  EXPECT_EQ(cache.stats().resident_bytes, 30u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SegmentCache, VerifiedPutRejectsCorruptPayloadAtTheBoundary) {
  SegmentCache cache(1 << 16);
  Bytes good = payload_of(64, 0xCD);
  const std::uint64_t sum = checksum64(good.data(), good.size());

  cache.put(seg(9), good, sum);  // verified insert caches normally
  Bytes out;
  EXPECT_TRUE(cache.get(seg(9), out));
  EXPECT_EQ(out, good);

  Bytes bad = good;
  bad[10] ^= 0x08;
  try {
    cache.put(seg(10), bad, sum);
    FAIL() << "corrupted payload accepted into the cache";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.layer(), IntegrityError::Layer::kCache);
    EXPECT_EQ(e.expected(), sum);
  }
  EXPECT_FALSE(cache.get(seg(10), out));

  // Pre-v4 archives have no checksum column: unverified puts still cache.
  cache.put(seg(11), bad);
  EXPECT_TRUE(cache.get(seg(11), out));
}

TEST(SegmentCache, SameSegmentKeyInTwoArchivesIsTwoEntries) {
  SegmentCache cache(128);
  cache.put({1, 42}, payload_of(8, 0x11));
  cache.put({2, 42}, payload_of(8, 0x22));
  Bytes out;
  ASSERT_TRUE(cache.get({1, 42}, out));
  EXPECT_EQ(out, payload_of(8, 0x11));
  ASSERT_TRUE(cache.get({2, 42}, out));
  EXPECT_EQ(out, payload_of(8, 0x22));
  EXPECT_EQ(cache.stats().entries, 2u);
}

// The handle forwards the v4 checksum column so downstream trust boundaries
// (session cache inserts, wire SEGMENT frames) can re-verify payloads.
TEST(Serve, HandleForwardsChecksumColumnAndSessionsCacheVerified) {
  auto field = smooth_field(Dims{16, 12, 8}, 57, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);  // Options::integrity → v4

  ArchiveSet set;
  auto handle = set.open_memory("a", Bytes(archive));
  MemorySource ref{Bytes(archive)};
  const std::vector<SegmentId> ids = handle->segment_ids();
  ASSERT_FALSE(ids.empty());
  for (const SegmentId& id : ids) {
    ASSERT_TRUE(handle->segment_checksum(id).has_value());
    EXPECT_EQ(handle->segment_checksum(id), ref.segment_checksum(id));
  }

  // Session traffic reaches the shared cache only through verified inserts.
  Session<double> session(handle);
  session.retrieve(Request::full());
  EXPECT_GT(handle->cache_stats().entries, 0u);
}

// ---- PooledSource ---------------------------------------------------------

TEST(Serve, PooledSourceMatchesBaseAndPropagatesErrors) {
  auto field = smooth_field(Dims{24, 20, 16}, 51, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);

  MemorySource direct{Bytes(archive)};
  MemorySource base{Bytes(archive)};
  PooledSource pool(base, /*workers=*/2);

  EXPECT_EQ(pool.header(), direct.header());
  EXPECT_EQ(pool.version(), direct.version());
  EXPECT_EQ(pool.total_size(), direct.total_size());
  // The pool mirrors the base's open cost into its own ledger.
  EXPECT_EQ(pool.stats().bytes_read, direct.stats().bytes_read);

  std::vector<SegmentId> ids = direct.segment_ids();
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(pool.read_many(ids), direct.read_many(ids));
  EXPECT_EQ(pool.stats().bytes_read, direct.stats().bytes_read);

  EXPECT_EQ(pool.read_segment(ids.front()), direct.read_segment(ids.front()));

  // A missing id fails the dispatch without charging anything.
  const std::size_t before = pool.stats().bytes_read;
  SegmentId bogus;
  bogus.kind = 0xAB;
  bogus.level = 0xCD;
  EXPECT_THROW(pool.read_segment(bogus), std::runtime_error);
  EXPECT_EQ(pool.stats().bytes_read, before);
}

TEST(Serve, PooledSourceConcurrentBatchesMergeIntoFewerDispatches) {
  constexpr int kThreads = 8;
  auto field = smooth_field(Dims{24, 20, 16}, 52, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);

  MemorySource direct{Bytes(archive)};
  const std::vector<SegmentId> ids = direct.segment_ids();
  const std::vector<Bytes> want = direct.read_many(ids);

  MemorySource base{Bytes(archive)};
  PooledSource pool(base, /*workers=*/2);
  std::vector<std::vector<Bytes>> got(kThreads);
  std::barrier gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      got[t] = pool.read_many(ids);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], want) << "thread " << t;
  // One read_call per merged dispatch: never more than one per caller batch,
  // and at least one.
  const std::size_t dispatches = pool.stats().read_calls;
  EXPECT_GE(dispatches, 1u);
  EXPECT_LE(dispatches, static_cast<std::size_t>(kThreads));
}

// ---- ArchiveSet / Session -------------------------------------------------

TEST(Serve, ArchiveSetOpensEachArchiveOnce) {
  auto field = smooth_field(Dims{20, 16, 12}, 53, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);
  const std::string path = ::testing::TempDir() + "/ipcomp_serve_once.ipc";
  write_file(path, archive);

  ArchiveSet set;
  auto a = set.open_file(path);
  auto b = set.open_file(path);
  EXPECT_EQ(a.get(), b.get());  // one handle, one open cost
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.get(path).get(), a.get());

  auto m = set.open_memory("mem", Bytes(archive));
  EXPECT_NE(m.get(), a.get());
  EXPECT_EQ(set.size(), 2u);

  set.close(path);
  EXPECT_EQ(set.get(path), nullptr);
  // The dropped handle stays alive for existing holders.
  EXPECT_GT(a->total_size(), 0u);
}

TEST(Serve, SharedCacheBudgetTwoArchivesCompete) {
  // Two archives, one cache whose budget holds roughly ONE of them: traffic
  // on the second must evict the first (cross-archive LRU, one byte cap),
  // while every session still reconstructs exactly.
  auto field_a = smooth_field(Dims{24, 20, 16}, 58, 0.05);
  auto field_b = smooth_field(Dims{24, 20, 16}, 59, 0.08);
  Bytes archive_a = make_archive(field_a, 1e-6, 8);
  Bytes archive_b = make_archive(field_b, 1e-6, 8);

  ServeOptions sopts;
  sopts.cache_capacity_bytes = archive_a.size();  // ~one archive's worth
  ArchiveSet set(sopts);
  auto ha = set.open_memory("a", Bytes(archive_a));
  auto hb = set.open_memory("b", Bytes(archive_b));

  // Warm A, then prove a second A session is served from cache.
  Session<double>(ha).retrieve(Request::full());
  const std::size_t physical_a_warm = ha->source_stats().bytes_read;
  Session<double>(ha).retrieve(Request::full());
  EXPECT_EQ(ha->source_stats().bytes_read, physical_a_warm);

  // Full traffic on B sweeps the shared LRU; A's residency is collateral.
  Session<double> sb(hb);
  sb.retrieve(Request::full());
  EXPECT_GT(set.cache_stats().evictions, 0u);
  EXPECT_LE(set.cache_stats().resident_bytes, set.cache_stats().capacity_bytes);

  // A third A session now misses (its segments were evicted) and refetches
  // from storage — the set-wide budget really is shared, not per-archive.
  Session<double> sa(ha);
  sa.retrieve(Request::full());
  EXPECT_GT(ha->source_stats().bytes_read, physical_a_warm);

  // Both reconstructions stay exact under the churn.
  EXPECT_LE(linf(field_a.const_view(), sa.data()), 1e-6);
  EXPECT_LE(linf(field_b.const_view(), sb.data()), 1e-6);
}

TEST(Serve, SessionMatchesIsolatedReaderExactly) {
  auto field = smooth_field(Dims{24, 20, 16}, 54, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);

  MemorySource iso_src{Bytes(archive)};
  ProgressiveReader<double> isolated(iso_src);

  ArchiveSet set;
  auto handle = set.open_memory("a", Bytes(archive));
  Session<double> session(handle);

  const Request steps[] = {
      Request::error_bound(1e-2),
      Request::error_bound(1e-4).within({0, 0, 0}, {12, 12, 12}),
      Request::bytes(3000),
      Request::full(),
  };
  for (const Request& req : steps) {
    RetrievalPlan ip = isolated.plan(req);
    RetrievalPlan sp = session.plan(req);
    EXPECT_EQ(ip.segments, sp.segments);
    EXPECT_EQ(ip.bytes_new, sp.bytes_new);
    RetrievalStats is = isolated.execute(ip);
    RetrievalStats ss = session.execute(sp);
    // The session ledger charges what the client consumed — cache hit or
    // not — so its stats are indistinguishable from a private reader's.
    EXPECT_EQ(is.bytes_new, ss.bytes_new);
    EXPECT_EQ(is.bytes_total, ss.bytes_total);
    EXPECT_EQ(is.guaranteed_error, ss.guaranteed_error);
    EXPECT_EQ(isolated.data(), session.data());
  }
  EXPECT_EQ(session.bytes_used(), iso_src.stats().bytes_read);
}

TEST(Serve, SecondSessionIsServedFromCacheNotStorage) {
  auto field = smooth_field(Dims{24, 20, 16}, 55, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);

  ArchiveSet set;  // default capacity holds this whole archive
  auto handle = set.open_memory("a", Bytes(archive));

  Session<double> first(handle);
  first.retrieve(Request::full());
  const SourceStats physical_after_first = handle->source_stats();

  Session<double> second(handle);
  second.retrieve(Request::full());
  // Identical reconstruction, zero new storage traffic: every segment the
  // second session needed was resident in the shared cache.
  EXPECT_EQ(second.data(), first.data());
  EXPECT_EQ(handle->source_stats().bytes_read, physical_after_first.bytes_read);
  EXPECT_EQ(handle->source_stats().read_calls, physical_after_first.read_calls);
  // But the second session still paid for the volume it consumed.
  EXPECT_EQ(second.bytes_used(), first.bytes_used());
  EXPECT_GT(handle->cache_stats().hits, 0u);
}

TEST(Serve, SessionQuotaRejectsAtAdmissionAndLeavesStateUntouched) {
  auto field = smooth_field(Dims{24, 20, 16}, 56, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);

  ArchiveSet set;
  auto handle = set.open_memory("a", Bytes(archive));

  // Price the full and coarse retrievals with an unmetered probe session;
  // the test needs a genuinely partial tier below the quota.
  Session<double> probe(handle);
  const std::size_t full_cost = probe.plan(Request::full()).bytes_new;
  const std::size_t coarse_cost =
      probe.plan(Request::error_bound(1e-2)).bytes_new;
  ASSERT_GT(full_cost, 0u);
  ASSERT_LT(coarse_cost, full_cost - 1);

  // A quota below the full price must reject full fidelity...
  Session<double> metered(handle, /*byte_quota=*/full_cost - 1);
  const RetrievalPlan full_plan = metered.plan(Request::full());
  EXPECT_THROW(metered.execute(full_plan), QuotaExceeded);
  // ...before any I/O: nothing consumed, the session still at zero.
  EXPECT_EQ(metered.bytes_used(), 0u);
  EXPECT_EQ(metered.quota_remaining(), full_cost - 1);

  // A cheaper request is admitted, and its exact price lands in the ledger.
  RetrievalStats st = metered.retrieve(Request::error_bound(1e-2));
  EXPECT_GT(st.bytes_new, 0u);
  EXPECT_EQ(metered.bytes_used(), st.bytes_new);
  EXPECT_EQ(metered.quota_remaining(), full_cost - 1 - st.bytes_new);

  // The error carries the exact shortfall.
  try {
    metered.execute(metered.plan(Request::full()));
    FAIL() << "expected QuotaExceeded";
  } catch (const QuotaExceeded& e) {
    EXPECT_GT(e.needed(), e.remaining());
    EXPECT_EQ(e.remaining(), metered.quota_remaining());
  }
}

// ---- the tsan-preset stress test ------------------------------------------

// N threads x M sessions over ONE shared archive: mixed plan/execute +
// region traffic against sessions sharing the cache and the I/O pool, a
// monitor thread sampling the LRU capacity invariant live, and every final
// reconstruction byte-identical to a serial reader over a private source.
void archive_set_stress(bool through_file, std::size_t cache_capacity) {
  constexpr int kThreads = 8;
  constexpr int kSessionsPerThread = 2;

  Options opt;
  opt.error_bound = 1e-6;
  opt.relative = false;
  opt.block_side = 8;
  opt.progressive_threshold = 256;  // real bitplane segments (see make_archive)
  auto field = smooth_field(Dims{24, 20, 16}, 57, 0.05);
  const Bytes archive = compress(field.const_view(), opt);

  // Reference: a private reader's one-shot full retrieval.  Every traffic
  // shape below ends at Request::full(), and a refinement rebuilds each block
  // from its codes, so every route must end bitwise equal to it.
  // Works on ProgressiveReader<double> and Session<double> alike (identical
  // plan/execute/retrieve surface).
  auto run_shape = [](auto& r, int shape) {
    if (shape == 0) r.retrieve(Request::error_bound(1e-2));
    if (shape == 1) {
      r.execute(r.plan(
          Request::error_bound(1e-4).within({0, 0, 0}, {12, 12, 12})));
    }
    if (shape == 2) r.retrieve(Request::bytes(2000));
    if (shape == 3) r.execute(r.plan(Request::error_bound(1e-3)));
    r.retrieve(Request::full());
  };
  std::vector<double> want;
  {
    MemorySource one_src{Bytes(archive)};
    ProgressiveReader<double> one(one_src);
    one.retrieve(Request::full());
    want = one.data();
  }
  std::size_t isolated_bytes = 0;
  for (int shape = 0; shape < 4; ++shape) {
    MemorySource ref_src{Bytes(archive)};
    ProgressiveReader<double> ref(ref_src);
    run_shape(ref, shape);
    ASSERT_EQ(ref.data(), want) << "shape " << shape;
    // Every path ends at full fidelity and never refetches, so the physical
    // price is the same no matter the route.
    if (shape == 0) {
      isolated_bytes = ref_src.stats().bytes_read;
    } else {
      ASSERT_EQ(ref_src.stats().bytes_read, isolated_bytes);
    }
  }

  ServeOptions sopts;
  sopts.cache_capacity_bytes = cache_capacity;
  sopts.io_threads = 2;
  ArchiveSet set(sopts);
  std::shared_ptr<ArchiveHandle> handle;
  if (through_file) {
    const std::string path = ::testing::TempDir() + "/ipcomp_serve_stress.ipc";
    write_file(path, archive);
    handle = set.open_file(path);
  } else {
    handle = set.open_memory("stress", Bytes(archive));
  }

  std::atomic<bool> monitoring{true};
  std::atomic<std::size_t> capacity_violations{0};
  std::thread monitor([&] {
    while (monitoring.load(std::memory_order_relaxed)) {
      CacheStats s = handle->cache_stats();
      if (s.resident_bytes > s.capacity_bytes) {
        capacity_violations.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::vector<double>> result(kThreads * kSessionsPerThread);
  std::barrier gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      for (int s = 0; s < kSessionsPerThread; ++s) {
        Session<double> session(handle);
        // Mixed traffic, shape varying by (thread, session).
        const int shape = (t + s) % 4;
        if (shape == 3) {
          // plan() purity under concurrency: price without advancing.
          RetrievalPlan p = session.plan(Request::error_bound(1e-3));
          ASSERT_EQ(session.bytes_used(), 0u);
        }
        run_shape(session, shape);
        result[static_cast<std::size_t>(t) * kSessionsPerThread +
               static_cast<std::size_t>(s)] = session.data();
        // Per-session accounting is isolated: this session paid the full
        // archive price in its own ledger no matter what its neighbors did.
        ASSERT_EQ(session.bytes_used(), isolated_bytes);
      }
    });
  }
  for (auto& th : threads) th.join();
  monitoring.store(false, std::memory_order_relaxed);
  monitor.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int s = 0; s < kSessionsPerThread; ++s) {
      const std::size_t i = static_cast<std::size_t>(t) * kSessionsPerThread +
                            static_cast<std::size_t>(s);
      ASSERT_EQ(result[i], want) << "session " << i;
    }
  }
  EXPECT_EQ(capacity_violations.load(), 0u);
  CacheStats cs = handle->cache_stats();
  EXPECT_LE(cs.resident_bytes, cs.capacity_bytes);
  EXPECT_GT(cs.hits, 0u);
  // Shared tier did strictly less physical I/O than 16 isolated readers.
  EXPECT_LT(handle->source_stats().bytes_read,
            static_cast<std::size_t>(kThreads * kSessionsPerThread) *
                isolated_bytes);
}

TEST(Serve, ArchiveSetStressMemoryBacked) {
  archive_set_stress(/*through_file=*/false, std::size_t{64} << 20);
}

TEST(Serve, ArchiveSetStressFileBacked) {
  archive_set_stress(/*through_file=*/true, std::size_t{64} << 20);
}

// Small capacity: constant evictions, every session still exact.
TEST(Serve, ArchiveSetStressUnderEvictionPressure) {
  archive_set_stress(/*through_file=*/false, /*cache_capacity=*/4096);
}

}  // namespace
}  // namespace ipcomp
