#include <gtest/gtest.h>

#include <cstring>

#include "ipcomp.hpp"
#include "test_util.hpp"

namespace ipcomp {
namespace {

using testutil::linf;
using testutil::smooth_field;

Bytes make_archive(const NdArray<double>& field, double eb_abs,
                   InterpKind kind = InterpKind::kCubic,
                   std::size_t prog_threshold = 256) {
  Options opt;
  opt.error_bound = eb_abs;
  opt.relative = false;
  opt.interp = kind;
  opt.progressive_threshold = prog_threshold;
  return compress(field.const_view(), opt);
}

// ----------------------------------------------------------------- EB mode

class ProgressiveErrorBound : public ::testing::TestWithParam<InterpKind> {};

TEST_P(ProgressiveErrorBound, GuaranteeHoldsAcrossTargets) {
  const InterpKind kind = GetParam();
  auto field = smooth_field(Dims{40, 40, 24}, 21, /*noise=*/0.1);
  const double eb = 1e-7;
  Bytes archive = make_archive(field, eb, kind);
  for (double target : {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}) {
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    auto st = reader.retrieve(Request::error_bound(target));
    double actual = linf(field.const_view(), reader.data());
    EXPECT_LE(st.guaranteed_error, target * (1 + 1e-9)) << "target " << target;
    // The amplification model is a proven bound: the actual error always
    // stays within both the target and the reported guarantee.
    EXPECT_LE(actual, target * (1 + 1e-9)) << "target " << target;
    EXPECT_LE(actual, st.guaranteed_error * (1 + 1e-9)) << "target " << target;
  }
}

TEST_P(ProgressiveErrorBound, LooserTargetsLoadLess) {
  const InterpKind kind = GetParam();
  auto field = smooth_field(Dims{32, 32, 32}, 22, 0.05);
  Bytes archive = make_archive(field, 1e-8, kind);
  std::size_t prev_bytes = std::numeric_limits<std::size_t>::max();
  for (double target : {1e-7, 1e-5, 1e-3, 1e-1}) {
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    auto st = reader.retrieve(Request::error_bound(target));
    EXPECT_LE(st.bytes_total, prev_bytes);
    prev_bytes = st.bytes_total;
  }
  // The loosest target should load dramatically less than everything.
  MemorySource full_src{Bytes(archive)};
  ProgressiveReader<double> full_reader(full_src);
  auto full = full_reader.retrieve(Request::full());
  EXPECT_LT(prev_bytes, full.bytes_total / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ProgressiveErrorBound,
    ::testing::Values(InterpKind::kLinear, InterpKind::kCubic),
    [](const auto& info) {
      return info.param == InterpKind::kCubic ? "cubic" : "linear";
    });

// --------------------------------------------------------------- increments

TEST(ProgressiveIncrement, RefinementMatchesFromScratch) {
  auto field = smooth_field(Dims{36, 28, 20}, 23, 0.1);
  Bytes archive = make_archive(field, 1e-7);
  const double targets[] = {1e-1, 1e-3, 1e-5, 1e-6};

  // Incremental reader refines through all targets.
  MemorySource inc_src{Bytes(archive)};
  ProgressiveReader<double> inc(inc_src);
  for (double t : targets) {
    inc.retrieve(Request::error_bound(t));
    // From-scratch reader goes straight to this target.
    MemorySource one_src{Bytes(archive)};
    ProgressiveReader<double> one(one_src);
    one.retrieve(Request::error_bound(t));
    // The incremental reader may hold MORE planes (monotone refinement), so
    // compare against its own guarantee rather than bit-equality with the
    // from-scratch reader; also verify both readers obey the target.
    EXPECT_LE(linf(field.const_view(), inc.data()),
              inc.current_guaranteed_error() * (1 + 1e-9));
    EXPECT_LE(linf(field.const_view(), one.data()), t * (1 + 1e-9));
    EXPECT_LE(linf(field.const_view(), inc.data()), t * (1 + 1e-9));
  }
}

TEST(ProgressiveIncrement, DeltaReconstructionIsNearExact) {
  // Loading planes in two steps must produce exactly the same output as
  // loading them in one step: a refinement rebuilds from the codes.
  auto field = smooth_field(Dims{32, 32, 16}, 24, 0.05);
  Bytes archive = make_archive(field, 1e-8);

  MemorySource two_src{Bytes(archive)};
  ProgressiveReader<double> two(two_src);
  two.retrieve(Request::error_bound(1e-3));
  two.retrieve(Request::full());

  MemorySource one_src{Bytes(archive)};
  ProgressiveReader<double> one(one_src);
  one.retrieve(Request::full());

  ASSERT_EQ(one.data().size(), two.data().size());
  EXPECT_EQ(0, std::memcmp(one.data().data(), two.data().data(),
                           one.data().size() * sizeof(double)));
}

TEST(ProgressiveIncrement, IncrementalLoadsOnlyNewBytes) {
  auto field = smooth_field(Dims{40, 40, 16}, 25, 0.05);
  Bytes archive = make_archive(field, 1e-8);

  MemorySource inc_src{Bytes(archive)};
  ProgressiveReader<double> inc(inc_src);
  auto s1 = inc.retrieve(Request::error_bound(1e-3));
  auto s2 = inc.retrieve(Request::error_bound(1e-6));
  EXPECT_EQ(s2.bytes_total, s1.bytes_total + s2.bytes_new);

  // One-shot at the finer target.
  MemorySource one_src{Bytes(archive)};
  ProgressiveReader<double> one(one_src);
  auto s3 = one.retrieve(Request::error_bound(1e-6));
  // Incremental path cannot be dramatically worse than one-shot (it may load
  // slightly more because the coarse plan is a subset constraint).
  EXPECT_LE(s3.bytes_total, s2.bytes_total * (1 + 1e-9) + 1);
}

TEST(ProgressiveIncrement, RepeatRequestLoadsNothing) {
  auto field = smooth_field(Dims{32, 32, 8}, 26);
  Bytes archive = make_archive(field, 1e-7);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::error_bound(1e-4));
  auto again = reader.retrieve(Request::error_bound(1e-4));
  EXPECT_EQ(again.bytes_new, 0u);
  auto coarser = reader.retrieve(Request::error_bound(1e-2));
  EXPECT_EQ(coarser.bytes_new, 0u);
}

// ----------------------------------------------------------------- BR mode

TEST(ProgressiveBitrate, BudgetRespectedAndErrorShrinks) {
  auto field = smooth_field(Dims{48, 32, 32}, 27, 0.1);
  Bytes archive = make_archive(field, 1e-8);
  const std::size_t n = field.count();
  double prev_err = std::numeric_limits<double>::infinity();
  for (double bitrate : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    auto st = reader.retrieve(Request::bitrate(bitrate));
    EXPECT_LE(st.bytes_total, static_cast<std::size_t>(bitrate * n / 8) + 1)
        << "bitrate " << bitrate;
    double actual = linf(field.const_view(), reader.data());
    EXPECT_LE(actual, prev_err * (1 + 1e-9)) << "bitrate " << bitrate;
    prev_err = actual;
  }
}

TEST(ProgressiveBitrate, IncrementalBitrateRefinement) {
  auto field = smooth_field(Dims{32, 32, 32}, 28, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  const std::size_t n = field.count();
  double prev_guarantee = std::numeric_limits<double>::infinity();
  for (double bitrate : {1.0, 2.0, 4.0}) {
    auto st = reader.retrieve(Request::bitrate(bitrate));
    EXPECT_LE(st.bytes_total, static_cast<std::size_t>(bitrate * n / 8) + 1);
    // The *guarantee* shrinks monotonically with more planes; the pointwise
    // error may wiggle transiently (a partially-loaded negabinary value can
    // overshoot its final magnitude), so only the bound is asserted.
    EXPECT_LE(st.guaranteed_error, prev_guarantee * (1 + 1e-12));
    EXPECT_LE(linf(field.const_view(), reader.data()),
              st.guaranteed_error * (1 + 1e-9));
    prev_guarantee = st.guaranteed_error;
  }
}

TEST(ProgressiveBitrate, TinyBudgetStillReconstructs) {
  auto field = smooth_field(Dims{32, 32, 32}, 29);
  Bytes archive = make_archive(field, 1e-6);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  auto st = reader.retrieve(Request::bytes(0));
  // Mandatory segments always load; output exists with the guarantee bound.
  EXPECT_EQ(reader.data().size(), field.count());
  EXPECT_GT(st.bytes_total, 0u);
  EXPECT_LE(linf(field.const_view(), reader.data()),
            reader.current_guaranteed_error() * (1 + 1e-9));
}

// ------------------------------------------------------------------- misc

TEST(Progressive, RequestBelowCompressionEbLoadsEverything) {
  auto field = smooth_field(Dims{32, 32}, 30);
  Bytes archive = make_archive(field, 1e-4);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  auto st = reader.retrieve(Request::error_bound(1e-9));  // tighter than eb: best effort
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-4 * (1 + 1e-9));
  MemorySource full_src{Bytes(archive)};
  ProgressiveReader<double> full(full_src);
  auto fst = full.retrieve(Request::full());
  EXPECT_EQ(st.bytes_total, fst.bytes_total);
}

TEST(Progressive, StatsBitrateConsistent) {
  auto field = smooth_field(Dims{64, 64}, 31);
  Bytes archive = make_archive(field, 1e-6);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  auto st = reader.retrieve(Request::full());
  EXPECT_NEAR(st.bitrate, 8.0 * st.bytes_total / field.count(), 1e-12);
  EXPECT_EQ(st.bytes_total, reader.bytes_loaded());
}

TEST(Progressive, GuaranteedErrorDecreasesMonotonically) {
  auto field = smooth_field(Dims{40, 40, 20}, 32, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  double prev = std::numeric_limits<double>::infinity();
  for (double t : {1e-2, 1e-3, 1e-4, 1e-5, 1e-6}) {
    auto st = reader.retrieve(Request::error_bound(t));
    EXPECT_LE(st.guaranteed_error, prev * (1 + 1e-12));
    prev = st.guaranteed_error;
  }
}

TEST(Progressive, FileBackedPartialReads) {
  auto field = smooth_field(Dims{48, 48, 24}, 33, 0.05);
  Bytes archive = make_archive(field, 1e-8);
  std::string path = ::testing::TempDir() + "/ipcomp_progressive.ipc";
  write_file(path, archive);
  FileSource src(path);
  ProgressiveReader<double> reader(src);
  auto coarse = reader.retrieve(Request::error_bound(1e-2));
  EXPECT_LT(coarse.bytes_total, archive.size() / 2);
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-2 * (1 + 1e-9));
  auto fine = reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-8 * (1 + 1e-9));
  EXPECT_LE(fine.bytes_total, archive.size());
  std::remove(path.c_str());
}

TEST(Progressive, FloatArchiveProgressive) {
  auto field = smooth_field<float>(Dims{32, 32, 16}, 34, 0.02f);
  Options opt;
  opt.error_bound = 1e-5;
  opt.relative = false;
  opt.progressive_threshold = 256;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<float> reader(src);
  auto st = reader.retrieve(Request::error_bound(1e-2));
  EXPECT_LE(linf(field.const_view(), reader.data()),
            static_cast<double>(st.guaranteed_error) * (1 + 1e-5));
  reader.retrieve(Request::full());
  // The refined field is the compressor's in-loop reconstruction, whose
  // float32 values the quantizer already checked against eb.
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-5);
}

// ---- stepwise refinement is exact ------------------------------------------
//
// Any request sequence that ends at Request::full() leaves data() bitwise
// equal to a fresh reader's one-shot full read, for whole-field and block
// archives, region-first sequences, both value types and any thread count.

enum class StepwiseMode { kWhole, kBlock, kRegionFirst };

template <typename T>
void expect_stepwise_equals_oneshot(StepwiseMode mode) {
  auto field = smooth_field<T>(Dims{40, 36, 28}, 62, 0.05);
  Options opt;
  opt.error_bound = sizeof(T) == 4 ? 1e-5 : 1e-8;
  opt.relative = false;
  opt.progressive_threshold = 256;
  opt.block_side = mode == StepwiseMode::kWhole ? 0 : 16;
  const Bytes archive = compress(field.const_view(), opt);
  std::vector<T> reference;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    testutil::ScopedThreads scoped(threads);
    MemorySource one_src{Bytes(archive)};
    ProgressiveReader<T> one(one_src);
    one.retrieve(Request::full());
    if (reference.empty()) reference = one.data();
    ASSERT_EQ(one.data(), reference);

    MemorySource step_src{Bytes(archive)};
    ProgressiveReader<T> step(step_src);
    const double eb = step.compression_eb();
    if (mode == StepwiseMode::kRegionFirst) {
      step.retrieve(
          Request::error_bound(64 * eb).within({5, 0, 3}, {21, 30, 17}));
    }
    step.retrieve(Request::error_bound(1e3 * eb));
    step.retrieve(Request::bytes(4000));
    step.retrieve(Request::error_bound(4 * eb));
    step.retrieve(Request::full());
    ASSERT_EQ(step.data().size(), reference.size());
    EXPECT_EQ(0, std::memcmp(step.data().data(), reference.data(),
                             reference.size() * sizeof(T)));
  }
}

class StepwiseRefine : public ::testing::TestWithParam<StepwiseMode> {};

TEST_P(StepwiseRefine, EndsBitwiseEqualToOneShotF64) {
  expect_stepwise_equals_oneshot<double>(GetParam());
}

TEST_P(StepwiseRefine, EndsBitwiseEqualToOneShotF32) {
  expect_stepwise_equals_oneshot<float>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Modes, StepwiseRefine,
                         ::testing::Values(StepwiseMode::kWhole,
                                           StepwiseMode::kBlock,
                                           StepwiseMode::kRegionFirst),
                         [](const auto& info) {
                           switch (info.param) {
                             case StepwiseMode::kWhole: return "Whole";
                             case StepwiseMode::kBlock: return "Block";
                             default: return "RegionFirst";
                           }
                         });

// ---- first execute() on a 32 MiB field ------------------------------------
//
// 256x128x128 f64 is exactly 32 MiB, the smallest field buffer whose first
// execute() fills the field on the calling thread beside the block decode.
// Each test compresses once and reads at 1, 2 and 8 OpenMP threads.

Bytes fill_overlap_archive(bool integrity) {
  auto field = smooth_field(Dims{256, 128, 128}, 15, /*noise=*/0.01);
  EXPECT_EQ(field.count() * sizeof(double), std::size_t{32} << 20);
  Options opt;
  opt.error_bound = 1e-6;
  opt.block_side = 32;
  opt.integrity = integrity;
  return compress(field.const_view(), opt);
}

constexpr int kFillThreads[] = {1, 2, 8};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ProgressiveFirstExecute, FullAndRegionFirstThreadInvariant) {
  const Bytes archive = fill_overlap_archive(/*integrity=*/true);
  // Unaligned box over 2x2x2 blocks: enough blocks for the overlap to run.
  const Request region = Request::full().within({40, 10, 70}, {90, 50, 100});
  std::vector<double> full_ref, region_ref;
  for (int threads : kFillThreads) {
    testutil::ScopedThreads scoped(threads);
    MemorySource full_src{Bytes(archive)};
    ProgressiveReader<double> full(full_src);
    full.retrieve(Request::full());

    MemorySource region_src{Bytes(archive)};
    ProgressiveReader<double> part(region_src);
    const RetrievalPlan plan = part.plan(region);
    ASSERT_EQ(plan.blocks.size(), 8u);
    part.execute(plan);

    if (full_ref.empty()) {
      full_ref = full.data();
      region_ref = part.data();
      // Planned blocks hold exactly the full read's values; every other
      // element is still the fill's +0.0.
      const BlockGrid& grid = part.block_grid();
      std::vector<bool> planned(grid.n_blocks, false);
      for (std::uint32_t b : plan.blocks) planned[b] = true;
      const Dims dims = part.header().dims;
      const std::size_t side = grid.block_side;
      std::size_t outside = 0;
      for (std::size_t z = 0, i = 0; z < dims[0]; ++z) {
        for (std::size_t y = 0; y < dims[1]; ++y) {
          for (std::size_t x = 0; x < dims[2]; ++x, ++i) {
            const std::size_t b =
                ((z / side) * grid.grid[1] + y / side) * grid.grid[2] +
                x / side;
            const double want = planned[b] ? full_ref[i] : 0.0;
            if (std::memcmp(&region_ref[i], &want, sizeof(double)) != 0) {
              FAIL() << "element " << i << " of block " << b;
            }
            outside += planned[b] ? 0 : 1;
          }
        }
      }
      EXPECT_EQ(outside, dims.count() - 8 * side * side * side);
    } else {
      EXPECT_TRUE(bitwise_equal(full.data(), full_ref)) << threads;
      EXPECT_TRUE(bitwise_equal(part.data(), region_ref)) << threads;
    }
  }
}

TEST(ProgressiveFirstExecute, ForgedPlaneBehindChecksumlessSourceThrows) {
  Bytes archive = fill_overlap_archive(/*integrity=*/false);
  const ArchiveIndex idx =
      ArchiveIndex::parse({archive.data(), archive.size()}, archive.size());
  ASSERT_FALSE(idx.has_checksums);
  // An unknown codec method tag on the top plane of the first and the last
  // block: whichever thread decodes them, the error must surface.
  std::size_t forged = 0;
  std::uint32_t last_block = 0;
  for (const auto& [key, e] : idx.entries) {
    last_block =
        std::max(last_block, SegmentId::from_key(key, idx.version).block);
  }
  for (const auto& [key, e] : idx.entries) {
    const SegmentId id = SegmentId::from_key(key, idx.version);
    if (id.kind == kSegPlane && id.level == 1 &&
        (id.block == 0 || id.block == last_block) && e.length > 0) {
      archive[e.offset] = 0xEE;
      ++forged;
    }
  }
  ASSERT_GT(forged, 0u);
  for (int threads : kFillThreads) {
    testutil::ScopedThreads scoped(threads);
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    EXPECT_THROW(reader.retrieve(Request::full()), std::runtime_error)
        << threads;
  }
}

// 2048x2048 f64 compressed whole is one 32 MiB block: the first execute()
// reserves the field, hints huge pages over it and fills it in one assign
// (no slab pipeline) before the block rebuilds in parallel.
TEST(ProgressiveFirstExecute, OneBlockFieldThreadInvariant) {
  auto field = smooth_field(Dims{2048, 2048}, 17, /*noise=*/0.01);
  ASSERT_EQ(field.count() * sizeof(double), std::size_t{32} << 20);
  Options opt;
  opt.error_bound = 1e-6;
  opt.block_side = 0;
  const Bytes archive = compress(field.const_view(), opt);

  std::vector<double> stepwise;
  {
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    ASSERT_EQ(reader.block_grid().n_blocks, 1u);
    reader.retrieve(Request::error_bound(1e3 * reader.compression_eb()));
    reader.retrieve(Request::full());
    stepwise = reader.data();
  }
  for (int threads : kFillThreads) {
    testutil::ScopedThreads scoped(threads);
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    reader.retrieve(Request::full());
    EXPECT_TRUE(bitwise_equal(reader.data(), stepwise)) << threads;
  }
}

// 260x128x128 f64 (34 MB) in 32-blocks: nine slabs along dimension 0, the
// last one 4 rows deep, so the slab pipeline fills a partial final slab.
TEST(ProgressiveFirstExecute, PartialLastSlabThreadInvariant) {
  auto field = smooth_field(Dims{260, 128, 128}, 16, /*noise=*/0.01);
  ASSERT_GE(field.count() * sizeof(double), std::size_t{32} << 20);
  Options opt;
  opt.error_bound = 1e-6;
  opt.block_side = 32;
  const Bytes archive = compress(field.const_view(), opt);
  // 3x2x2 blocks, reaching into the partial slab.
  const Request region = Request::full().within({200, 10, 70}, {259, 50, 100});

  // Reference from the path every later execute() takes: a coarse first
  // read, then a full read that rebuilds every block over the filled field.
  std::vector<double> stepwise;
  {
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    reader.retrieve(Request::error_bound(1e3 * reader.compression_eb()));
    reader.retrieve(Request::full());
    stepwise = reader.data();
  }
  for (int threads : kFillThreads) {
    testutil::ScopedThreads scoped(threads);
    MemorySource full_src{Bytes(archive)};
    ProgressiveReader<double> full(full_src);
    full.retrieve(Request::full());
    EXPECT_TRUE(bitwise_equal(full.data(), stepwise)) << threads;

    MemorySource region_src{Bytes(archive)};
    ProgressiveReader<double> part(region_src);
    const RetrievalPlan plan = part.plan(region);
    ASSERT_EQ(plan.blocks.size(), 12u);
    part.execute(plan);
    const BlockGrid& grid = part.block_grid();
    ASSERT_EQ(grid.grid[0], 9u);
    std::vector<bool> planned(grid.n_blocks, false);
    for (std::uint32_t b : plan.blocks) planned[b] = true;
    const Dims dims = part.header().dims;
    const std::size_t side = grid.block_side;
    ASSERT_EQ(part.data().size(), dims.count());
    for (std::size_t z = 0, i = 0; z < dims[0]; ++z) {
      for (std::size_t y = 0; y < dims[1]; ++y) {
        for (std::size_t x = 0; x < dims[2]; ++x, ++i) {
          const std::size_t b =
              ((z / side) * grid.grid[1] + y / side) * grid.grid[2] + x / side;
          const double want = planned[b] ? stepwise[i] : 0.0;
          if (std::memcmp(&part.data()[i], &want, sizeof(double)) != 0) {
            FAIL() << threads << " threads: element " << i << " of block "
                   << b;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ipcomp
