// Plan/execute retrieval API: Request/RetrievalPlan semantics, region
// requests with fidelity targets, plan purity/prediction exactness, stale-
// plan rejection, byte-accounting invariants, and FileSource read coalescing
// through the reader — across both backends, each compressed whole (one
// block) and in blocks (v2/v3).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <limits>
#include <numeric>

#include "ipcomp.hpp"
#include "test_util.hpp"

namespace ipcomp {
namespace {

using testutil::linf;
using testutil::smooth_field;

struct Combo {
  BackendId backend;
  std::size_t block_side;
  const char* tag;
};

class RequestApi : public ::testing::TestWithParam<Combo> {
 protected:
  static Bytes make_archive(const NdArray<double>& field, double eb_abs) {
    Options opt;
    opt.error_bound = eb_abs;
    opt.relative = false;
    opt.progressive_threshold = 256;
    opt.backend = GetParam().backend;
    opt.block_side = GetParam().block_side;
    return compress(field.const_view(), opt);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Combos, RequestApi,
    ::testing::Values(Combo{BackendId::kInterp, 0, "interp_v2_whole"},
                      Combo{BackendId::kInterp, 32, "interp_v2_b32"},
                      Combo{BackendId::kWavelet, 0, "wavelet_v3"},
                      Combo{BackendId::kWavelet, 32, "wavelet_v3_b32"}),
    [](const auto& info) { return std::string(info.param.tag); });

void expect_stats_eq(const RetrievalStats& a, const RetrievalStats& b) {
  EXPECT_EQ(a.bytes_new, b.bytes_new);
  EXPECT_EQ(a.bytes_total, b.bytes_total);
  EXPECT_EQ(a.guaranteed_error, b.guaranteed_error);
  EXPECT_EQ(a.bitrate, b.bitrate);
}

// retrieve(req) must equal the explicit plan+execute split: same planned
// segment list (same fetches in the same order), same stats, same
// reconstruction, same cumulative bytes.
TEST_P(RequestApi, RetrieveEqualsPlanPlusExecute) {
  auto field = smooth_field(Dims{40, 40, 24}, 41, 0.05);
  Bytes archive = make_archive(field, 1e-8);

  MemorySource one_call_src{Bytes(archive)};
  ProgressiveReader<double> one_call(one_call_src);
  MemorySource split_src{Bytes(archive)};
  ProgressiveReader<double> split(split_src);

  std::array<std::size_t, kMaxRank> lo{0, 0, 0, 0};
  std::array<std::size_t, kMaxRank> hi{20, 20, 24, 0};
  const std::vector<Request> steps = {
      Request::error_bound(1e-3), Request::bitrate(4.0),
      Request::bytes(15000),      Request::full().within(lo, hi),
      Request::full(),
  };
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Request& req = steps[i];
    // Both readers are in the same state, so their plans must agree exactly.
    RetrievalPlan op = one_call.plan(req);
    RetrievalPlan sp = split.plan(req);
    EXPECT_EQ(op.segments, sp.segments) << "step " << i;
    EXPECT_EQ(op.bytes_new, sp.bytes_new) << "step " << i;

    RetrievalStats os = one_call.retrieve(req);
    RetrievalStats ss = split.execute(sp);
    expect_stats_eq(os, ss);
    EXPECT_EQ(one_call.data(), split.data()) << "step " << i;
    EXPECT_EQ(one_call_src.stats().bytes_read, split_src.stats().bytes_read) << "step " << i;
  }
}

// plan() moves no payload bytes and its predictions are exact: the executed
// stats report exactly the predicted bytes_new and guaranteed_error, at any
// point of a request sequence.
TEST_P(RequestApi, PlanIsPureAndPredictionsAreExact) {
  auto field = smooth_field(Dims{32, 32, 32}, 42, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);

  for (double target : {1e-2, 1e-5}) {
    const std::size_t bytes_before = src.stats().bytes_read;
    const std::size_t calls_before = src.stats().read_calls;
    RetrievalPlan p = reader.plan(Request::error_bound(target));
    EXPECT_EQ(src.stats().bytes_read, bytes_before);  // no I/O during planning
    EXPECT_EQ(src.stats().read_calls, calls_before);
    RetrievalStats st = reader.execute(p);
    EXPECT_EQ(st.bytes_new, p.bytes_new);
    EXPECT_EQ(st.guaranteed_error, p.guaranteed_error);
    EXPECT_EQ(st.bytes_total, src.stats().bytes_read);
    // Re-planning the satisfied request fetches nothing.
    RetrievalPlan again = reader.plan(Request::error_bound(target));
    EXPECT_TRUE(again.segments.empty());
    EXPECT_EQ(again.bytes_new, 0u);
  }
  // The plan carries the per-level plane targets the planner chose.
  RetrievalPlan full = reader.plan(Request::full());
  ASSERT_FALSE(full.plane_targets.empty());
  RetrievalStats st = reader.execute(full);
  EXPECT_EQ(st.bytes_new, full.bytes_new);
  EXPECT_EQ(st.guaranteed_error, full.guaranteed_error);
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-8 * (1 + 1e-9));
}

// Every plan, uniform or region, lists every pending base (+aux) segment
// before the first plane, planes grouped per block, MSB-first within a level
// — one fetch order, pinned as API contract.
TEST_P(RequestApi, PlanSegmentOrderIsDocumented) {
  auto field = smooth_field(Dims{40, 40, 24}, 43, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);

  std::array<std::size_t, kMaxRank> lo{0, 0, 0, 0};
  std::array<std::size_t, kMaxRank> hi{40, 20, 24, 0};
  for (const Request& req : {Request::error_bound(1e-4),
                             Request::error_bound(1e-4).within(lo, hi),
                             Request::full().within(lo, hi)}) {
    const std::string what = to_string(req, 3);
    RetrievalPlan p = reader.plan(req);
    ASSERT_FALSE(p.segments.empty()) << what;
    bool seen_plane = false;
    std::uint32_t last_plane_block = 0;
    for (const SegmentId& id : p.segments) {
      if (id.kind == kSegPlane) {
        if (seen_plane) {
          EXPECT_GE(id.block, last_plane_block) << what;  // block-major
        }
        seen_plane = true;
        last_plane_block = id.block;
      } else {
        EXPECT_FALSE(seen_plane) << what << ": base/aux after a plane segment";
      }
    }
    // Per block+level, plane indices strictly decrease (MSB-first).
    for (std::size_t i = 1; i < p.segments.size(); ++i) {
      const SegmentId& a = p.segments[i - 1];
      const SegmentId& b = p.segments[i];
      if (a.kind == kSegPlane && b.kind == kSegPlane && a.block == b.block &&
          a.level == b.level) {
        EXPECT_GT(a.plane, b.plane) << what;
      }
    }
  }
}

// A region whose box touches every block plans over the whole field, so
// afterwards the reader's current guarantee is that request's guarantee, not
// a stale one left by the uniform request before it.
TEST_P(RequestApi, RegionOverEveryBlockSetsCurrentGuarantee) {
  auto field = smooth_field(Dims{40, 40, 24}, 52, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);

  std::array<std::size_t, kMaxRank> lo{20, 20, 0, 0};
  std::array<std::size_t, kMaxRank> hi{40, 40, 24, 0};
  reader.retrieve(Request::error_bound(1e-2));
  RetrievalPlan p = reader.plan(Request::error_bound(1e-5).within(lo, hi));
  ASSERT_EQ(p.blocks.size(), reader.block_grid().n_blocks);
  RetrievalStats st = reader.execute(p);
  EXPECT_LE(st.guaranteed_error, 1e-5 * (1 + 1e-9));
  EXPECT_EQ(reader.current_guaranteed_error(), st.guaranteed_error);
  EXPECT_LE(linf(field.const_view(), reader.data()),
            reader.current_guaranteed_error() * (1 + 1e-9));
}

// A plan is valid once, against the state it was computed from.
TEST_P(RequestApi, StalePlanIsRejected) {
  auto field = smooth_field(Dims{32, 32, 16}, 44, 0.05);
  Bytes archive = make_archive(field, 1e-7);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);

  RetrievalPlan stale = reader.plan(Request::error_bound(1e-3));
  RetrievalPlan fresh = reader.plan(Request::error_bound(1e-2));
  reader.execute(fresh);
  EXPECT_THROW(reader.execute(stale), std::logic_error);
  EXPECT_THROW(reader.execute(fresh), std::logic_error);  // consumed too
  // Re-planning after the rejection works as usual.
  reader.execute(reader.plan(Request::error_bound(1e-3)));
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-3 * (1 + 1e-9));
}

TEST_P(RequestApi, BadRegionBoundsRejected) {
  auto field = smooth_field(Dims{32, 32}, 45);
  Bytes archive = make_archive(field, 1e-6);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  std::array<std::size_t, kMaxRank> lo{8, 8, 0, 0};
  std::array<std::size_t, kMaxRank> hi{4, 16, 0, 0};  // hi < lo
  EXPECT_THROW(reader.plan(Request::full().within(lo, hi)),
               std::invalid_argument);
  hi = {40, 16, 0, 0};  // beyond the field
  EXPECT_THROW(reader.plan(Request::full().within(lo, hi)),
               std::invalid_argument);
}

// A NaN error bound or a non-finite bitrate has no meaning; the planner would
// convert it to an integer, so plan() rejects it up front.
TEST_P(RequestApi, NonFiniteTargetsRejected) {
  auto field = smooth_field(Dims{32, 32}, 45);
  Bytes archive = make_archive(field, 1e-6);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(reader.plan(Request::error_bound(nan)), std::invalid_argument);
  EXPECT_THROW(reader.plan(Request::bitrate(nan)), std::invalid_argument);
  EXPECT_THROW(reader.plan(Request::bitrate(inf)), std::invalid_argument);
  EXPECT_THROW(reader.plan(Request::bitrate(-inf)), std::invalid_argument);
}

// A finite bitrate whose byte budget exceeds 2^64 saturates: it buys
// everything, exactly as a full request does.
TEST_P(RequestApi, OversizeBitrateSaturatesToFull) {
  auto field = smooth_field(Dims{40, 40, 24}, 47, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  const RetrievalPlan full = reader.plan(Request::full());
  const RetrievalPlan huge = reader.plan(Request::bitrate(1e300));
  EXPECT_EQ(huge.segments, full.segments);
  EXPECT_EQ(huge.plane_targets, full.plane_targets);
  EXPECT_EQ(huge.bytes_new, full.bytes_new);
  EXPECT_EQ(huge.guaranteed_error, full.guaranteed_error);
}

// The open cost belongs to the first executed request — even across a mixed
// uniform -> region -> uniform sequence, per-request bytes_new sums to the
// cumulative bytes_total.
TEST_P(RequestApi, BytesNewSumsToTotalAcrossMixedSequence) {
  auto field = smooth_field(Dims{40, 40, 24}, 46, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);

  std::array<std::size_t, kMaxRank> lo{0, 0, 0, 0};
  std::array<std::size_t, kMaxRank> hi{20, 20, 24, 0};
  std::size_t sum = 0;
  RetrievalStats st = reader.execute(reader.plan(Request::error_bound(1e-2)));
  sum += st.bytes_new;
  EXPECT_EQ(sum, st.bytes_total);
  st = reader.execute(
      reader.plan(Request::error_bound(1e-5).within(lo, hi)));
  sum += st.bytes_new;
  EXPECT_EQ(sum, st.bytes_total);
  st = reader.execute(reader.plan(Request::full()));
  sum += st.bytes_new;
  EXPECT_EQ(sum, st.bytes_total);
  EXPECT_EQ(sum, src.stats().bytes_read);

  // Region-first sequence: the open cost lands on the region request.
  MemorySource src2{Bytes(archive)};
  ProgressiveReader<double> reader2(src2);
  RetrievalStats r1 =
      reader2.execute(reader2.plan(Request::full().within(lo, hi)));
  EXPECT_EQ(r1.bytes_new, r1.bytes_total);
  RetrievalStats r2 = reader2.execute(reader2.plan(Request::full()));
  EXPECT_EQ(r1.bytes_new + r2.bytes_new, r2.bytes_total);
}

// Region + finite error bound: expressible at last.  On a block-decomposed
// archive it must fetch strictly fewer bytes than the full-fidelity region
// while meeting the target inside the region (the guarantee covers the
// intersecting blocks).
TEST_P(RequestApi, RegionWithErrorBoundMeetsTargetWithFewerBytes) {
  auto field = smooth_field(Dims{40, 40, 24}, 47, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  std::array<std::size_t, kMaxRank> lo{0, 0, 0, 0};
  std::array<std::size_t, kMaxRank> hi{20, 20, 24, 0};

  MemorySource full_src{Bytes(archive)};
  ProgressiveReader<double> full_reader(full_src);
  RetrievalStats full_st = full_reader.retrieve(Request::full().within(lo, hi));

  std::size_t prev_bytes = 0;
  for (double target : {1e-2, 1e-4, 1e-6}) {
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    RetrievalPlan p =
        reader.plan(Request::error_bound(target).within(lo, hi));
    EXPECT_LE(p.guaranteed_error, target * (1 + 1e-9)) << "target " << target;
    RetrievalStats st = reader.execute(p);
    EXPECT_EQ(st.bytes_new, p.bytes_new);
    EXPECT_EQ(st.guaranteed_error, p.guaranteed_error);

    // Error measured inside the region only.
    const Dims& dims = field.dims();
    double max_err = 0.0;
    for (std::size_t z = lo[0]; z < hi[0]; ++z) {
      for (std::size_t y = lo[1]; y < hi[1]; ++y) {
        for (std::size_t x = lo[2]; x < hi[2]; ++x) {
          const std::size_t i = (z * dims[1] + y) * dims[2] + x;
          max_err = std::max(max_err, std::abs(field[i] - reader.data()[i]));
        }
      }
    }
    EXPECT_LE(max_err, target * (1 + 1e-9)) << "target " << target;
    EXPECT_GE(st.bytes_total, prev_bytes);  // tighter targets fetch more
    prev_bytes = st.bytes_total;
    if (GetParam().block_side != 0 && target > 1e-6) {
      // Coarse targets must beat the full-fidelity region fetch.
      EXPECT_LT(st.bytes_total, full_st.bytes_total) << "target " << target;
    }
  }
}

// Region + byte budget: the additional fetch respects the budget.
TEST_P(RequestApi, RegionWithByteBudgetRespectsBudget) {
  auto field = smooth_field(Dims{40, 40, 24}, 48, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  std::array<std::size_t, kMaxRank> lo{0, 0, 0, 0};
  std::array<std::size_t, kMaxRank> hi{20, 20, 24, 0};

  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  const std::size_t open_cost = src.stats().bytes_read;
  // Base (+aux) segments of the intersecting blocks are mandatory — they
  // always load, like retrieve(Request::bytes(0)) — so the budget constrains only the
  // plane bytes on top of them; a zero-budget plan exposes the floor.
  const std::uint64_t mandatory =
      reader.plan(Request::bytes(0).within(lo, hi)).bytes_new - open_cost;
  const std::uint64_t budget = 12000;
  RetrievalPlan p = reader.plan(Request::bytes(budget).within(lo, hi));
  RetrievalStats st = reader.execute(p);
  const std::uint64_t allowed =
      budget > mandatory ? budget : mandatory;  // planes fit inside budget
  EXPECT_LE(st.bytes_new - open_cost, allowed + 1);
  EXPECT_LE(linf(field.const_view(), reader.data()),
            reader.current_guaranteed_error() * (1 + 1e-9) + 1e-30);
}

// After a region request pushed some blocks ahead, uniform requests still
// plan correctly (sunk bytes are free) and their guarantees hold.
TEST_P(RequestApi, UniformAfterRegionStaysSoundAndCheap) {
  auto field = smooth_field(Dims{40, 40, 24}, 49, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  std::array<std::size_t, kMaxRank> lo{0, 0, 0, 0};
  std::array<std::size_t, kMaxRank> hi{20, 20, 24, 0};

  MemorySource seq_src{Bytes(archive)};
  ProgressiveReader<double> seq(seq_src);
  seq.execute(seq.plan(Request::full().within(lo, hi)));
  RetrievalStats st = seq.execute(seq.plan(Request::error_bound(1e-4)));
  EXPECT_LE(linf(field.const_view(), seq.data()), 1e-4 * (1 + 1e-9));

  // The same uniform target from scratch cannot be cheaper in *new* bytes
  // than after the region already paid for the overlapping blocks.
  MemorySource one_src{Bytes(archive)};
  ProgressiveReader<double> one(one_src);
  RetrievalStats one_st = one.execute(one.plan(Request::error_bound(1e-4)));
  EXPECT_LE(st.bytes_new, one_st.bytes_new);
}

// The reader funnels every request through one read_many call, so a
// FileSource-backed progressive sweep issues far fewer reads than segments
// fetched — with payloads and accounting identical to MemorySource.
TEST_P(RequestApi, FileSourceSweepCoalescesReads) {
  auto field = smooth_field(Dims{40, 40, 24}, 50, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  std::string path = ::testing::TempDir() + "/ipcomp_request_" +
                     std::string(GetParam().tag) + ".ipc";
  write_file(path, archive);

  FileSource fsrc(path);
  ProgressiveReader<double> freader(fsrc);
  MemorySource msrc{Bytes(archive)};
  ProgressiveReader<double> mreader(msrc);

  std::size_t segments_fetched = 0;
  for (double target : {1e-2, 1e-4, 1e-7}) {
    RetrievalPlan fp = freader.plan(Request::error_bound(target));
    RetrievalPlan mp = mreader.plan(Request::error_bound(target));
    EXPECT_EQ(fp.segments, mp.segments);
    segments_fetched += fp.segments.size();
    freader.execute(fp);
    mreader.execute(mp);
    EXPECT_EQ(freader.data(), mreader.data()) << "target " << target;
    EXPECT_EQ(fsrc.stats().bytes_read, msrc.stats().bytes_read) << "target " << target;
  }
  // MemorySource pays one "call" per segment; the file source coalesces.
  ASSERT_GT(segments_fetched, 8u);
  EXPECT_EQ(msrc.stats().read_calls, segments_fetched + 1);  // +1 header
  EXPECT_LT(fsrc.stats().read_calls, segments_fetched);
  EXPECT_EQ(fsrc.stats().coalesced_ranges, fsrc.stats().read_calls - 1);
  std::remove(path.c_str());
}

/// Rewrite `path` in place, keeping its inode, so a FileSource that already
/// holds the file reads the new bytes (write_file would rename a new file
/// over it, which an open FileSource never sees).
void overwrite_in_place(const std::string& path, const Bytes& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  EXPECT_EQ(std::fclose(f), 0);
}

// A failed bulk fetch leaves the reader untouched: nothing is charged to
// bytes_read(), the epoch is not burned (the same plan retries), and the
// open cost is still attributed exactly once — Σ bytes_new == bytes_total
// survives the retry.
TEST_P(RequestApi, FailedFetchLeavesPlanRetryable) {
  auto field = smooth_field(Dims{32, 32, 16}, 51, 0.05);
  Bytes archive = make_archive(field, 1e-7);
  std::string path = ::testing::TempDir() + "/ipcomp_retry_" +
                     std::string(GetParam().tag) + ".ipc";
  write_file(path, archive);
  FileSource src(path);
  ProgressiveReader<double> reader(src);
  RetrievalPlan p = reader.plan(Request::full());
  const std::size_t bytes_before = src.stats().bytes_read;

  // Truncate the file under the source: the bulk read fails cleanly.
  overwrite_in_place(
      path, Bytes(archive.begin(), archive.begin() + archive.size() / 2));
  EXPECT_THROW(reader.execute(p), std::runtime_error);
  EXPECT_EQ(src.stats().bytes_read, bytes_before);  // no phantom payload charged

  // Restore and retry the *same* plan.
  overwrite_in_place(path, archive);
  RetrievalStats st = reader.execute(p);
  EXPECT_EQ(st.bytes_new, p.bytes_new);
  EXPECT_EQ(st.bytes_new, st.bytes_total);  // open cost attributed once
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-7 * (1 + 1e-9));
  std::remove(path.c_str());
}

TEST(RequestToString, DescribesTargetAndRegion) {
  EXPECT_EQ(to_string(Request::full()), "full");
  EXPECT_EQ(to_string(Request::bytes(4096)), "bytes 4096");
  EXPECT_NE(to_string(Request::error_bound(1e-3)).find("error_bound"),
            std::string::npos);
  std::array<std::size_t, kMaxRank> lo{1, 2, 3, 0};
  std::array<std::size_t, kMaxRank> hi{4, 5, 6, 0};
  std::string s = to_string(Request::bitrate(2.5).within(lo, hi), 3);
  EXPECT_NE(s.find("bitrate 2.5"), std::string::npos);
  EXPECT_NE(s.find("[1,2,3):[4,5,6)"), std::string::npos);
  EXPECT_EQ(to_string(SegmentId{kSegPlane, 2, 7, 3}), "plane L2 k7 b3");
  EXPECT_EQ(to_string(SegmentId{kSegBase, 1, 0, 0}), "base L1 b0");
}

}  // namespace
}  // namespace ipcomp
