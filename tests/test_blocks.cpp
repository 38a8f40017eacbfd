// Block-decomposed (archive v2) compression: geometry, round-trips,
// thread-count determinism, region-of-interest retrieval, and forged
// block-table rejection (mirroring the v1 forged-input suite).
#include <gtest/gtest.h>

#include <array>
#include <limits>

#include "ipcomp.hpp"
#include "test_util.hpp"
#include "util/parallel.hpp"

namespace ipcomp {
namespace {

using testutil::linf;
using testutil::smooth_field;

TEST(BlockGridTest, WholeFieldIsOneBlock) {
  BlockGrid g = BlockGrid::analyze(Dims{100, 50}, 0);
  EXPECT_EQ(g.n_blocks, 1u);
  EXPECT_EQ(g.block_dims(0), Dims({100, 50}));
  EXPECT_EQ(g.origin_linear(0), 0u);
}

TEST(BlockGridTest, EdgeBlocksAreClipped) {
  BlockGrid g = BlockGrid::analyze(Dims{100, 50}, 32);
  EXPECT_EQ(g.grid[0], 4u);  // ceil(100/32)
  EXPECT_EQ(g.grid[1], 2u);  // ceil(50/32)
  EXPECT_EQ(g.n_blocks, 8u);
  EXPECT_EQ(g.block_dims(0), Dims({32, 32}));
  // Last block in both dimensions: 100 - 3*32 = 4 rows, 50 - 32 = 18 cols.
  EXPECT_EQ(g.block_dims(7), Dims({4, 18}));
  EXPECT_EQ(g.origin_linear(7), std::size_t{96} * 50 + 32);
}

TEST(BlockGridTest, BlockSideOneRejected) {
  EXPECT_THROW(BlockGrid::analyze(Dims{8, 8}, 1), std::invalid_argument);
  Options opt;
  opt.block_side = 1;
  auto field = smooth_field(Dims{8, 8}, 2);
  EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument);
}

TEST(BlockGridTest, HugeBlockSideDoesNotOverflowToZeroBlocks) {
  // (dims + side - 1) would wrap for side near SIZE_MAX and silently yield a
  // zero-block grid (an archive containing no data); the divide must be
  // overflow-safe and land on one block per dimension.
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  BlockGrid g = BlockGrid::analyze(Dims{256, 256}, huge);
  EXPECT_EQ(g.n_blocks, 1u);
  EXPECT_EQ(g.block_dims(0), Dims({256, 256}));

  auto field = smooth_field(Dims{20, 20}, 3);
  Options opt;
  opt.error_bound = 1e-5;
  opt.relative = false;
  opt.block_side = huge;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-5 * (1 + 1e-9));
}

TEST(BlockGridTest, Intersection) {
  BlockGrid g = BlockGrid::analyze(Dims{64, 64}, 32);
  std::array<std::size_t, kMaxRank> lo{10, 40};
  std::array<std::size_t, kMaxRank> hi{20, 50};
  EXPECT_FALSE(g.intersects(0, lo, hi));
  EXPECT_TRUE(g.intersects(1, lo, hi));  // rows 0..31, cols 32..63
  EXPECT_FALSE(g.intersects(2, lo, hi));
  EXPECT_FALSE(g.intersects(3, lo, hi));
}

TEST(BlocksTest, SegmentIdV2KeyRoundTrip) {
  SegmentId id{1, 7, 29, 123456};
  EXPECT_EQ(SegmentId::from_key(id.key(kArchiveV2), kArchiveV2), id);
  // v1 keys have no room for a block ordinal.
  EXPECT_THROW(id.key(kArchiveV1), std::runtime_error);
}

struct BlockCase {
  Dims dims;
  std::size_t block_side;
  double eb;
};

class BlockRoundTrip : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockRoundTrip, FullRetrievalWithinErrorBound) {
  const auto& c = GetParam();
  auto field = smooth_field(c.dims, /*seed=*/17, /*noise=*/0.05);
  Options opt;
  opt.error_bound = c.eb;
  opt.relative = false;
  opt.block_side = c.block_side;
  Bytes archive = compress(field.const_view(), opt);

  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  auto st = reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), c.eb * (1 + 1e-9));
  EXPECT_LE(st.guaranteed_error, c.eb * (1 + 1e-9));
  EXPECT_EQ(reader.data().size(), c.dims.count());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BlockRoundTrip,
    ::testing::Values(
        BlockCase{Dims{1000}, 64, 1e-3},
        BlockCase{Dims{1000}, 1024, 1e-3},  // block larger than the field
        BlockCase{Dims{7}, 4, 1e-6},
        BlockCase{Dims{64, 64}, 16, 1e-4},
        BlockCase{Dims{63, 65}, 16, 1e-4},
        BlockCase{Dims{17, 5}, 8, 1e-8},
        BlockCase{Dims{24, 24, 24}, 12, 1e-4},
        BlockCase{Dims{31, 17, 9}, 8, 1e-6},
        BlockCase{Dims{10, 30, 20}, 7, 1e-2},
        BlockCase{Dims{6, 6, 6, 6}, 4, 1e-4}),
    [](const auto& info) {
      std::string s = info.param.dims.to_string() + "_b" +
                      std::to_string(info.param.block_side);
      for (auto& ch : s) {
        if (ch == 'x') ch = '_';
      }
      return s;
    });

TEST(BlocksTest, FloatBlockRoundTrip) {
  auto field = smooth_field<float>(Dims{40, 40, 20}, 5, 0.01f);
  Options opt;
  opt.error_bound = 1e-3;
  opt.relative = false;
  opt.block_side = 16;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<float> reader(src);
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-3 * (1 + 1e-6));
}

TEST(BlocksTest, RelativeBoundResolvedOverWholeField) {
  auto field = smooth_field(Dims{48, 48}, 6);
  Options opt;
  opt.error_bound = 1e-4;
  opt.relative = true;
  opt.block_side = 16;
  const double range = testutil::value_range(field.const_view());
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  EXPECT_NEAR(reader.header().eb, 1e-4 * range, 1e-12 * range);
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-4 * range * (1 + 1e-9));
}

TEST(BlocksTest, ResolveErrorBoundOverloadsAgree) {
  auto field = smooth_field(Dims{32, 32}, 7);
  Options opt;
  opt.error_bound = 1e-3;
  opt.relative = true;
  double lo = field[0], hi = field[0];
  for (std::size_t i = 0; i < field.count(); ++i) {
    lo = std::min(lo, field[i]);
    hi = std::max(hi, field[i]);
  }
  EXPECT_EQ(resolve_error_bound(field.const_view(), opt),
            resolve_error_bound(opt, lo, hi));
  opt.error_bound = 0.0;
  EXPECT_THROW(resolve_error_bound(opt, lo, hi), std::invalid_argument);
}

TEST(BlocksTest, ProgressiveRequestsHonorGuarantee) {
  auto field = smooth_field(Dims{48, 48, 48}, 8, 0.02);
  Options opt;
  opt.error_bound = 1e-7;
  opt.relative = false;
  opt.block_side = 16;
  opt.progressive_threshold = 256;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  for (double target : {1e-2, 1e-4, 1e-6}) {
    auto st = reader.retrieve(Request::error_bound(target));
    EXPECT_LE(st.guaranteed_error, target * (1 + 1e-9));
    EXPECT_LE(linf(field.const_view(), reader.data()),
              st.guaranteed_error * (1 + 1e-9))
        << "target " << target;
  }
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-7 * (1 + 1e-9));
}

TEST(BlocksTest, ArchiveBytesIdenticalAcrossThreadCounts) {
  auto field = smooth_field(Dims{40, 40, 24}, 21, 0.03);
  for (std::size_t block_side : {std::size_t{0}, std::size_t{16}}) {
    Options opt;
    opt.error_bound = 1e-5;
    opt.block_side = block_side;
#if defined(_OPENMP)
    const int saved = omp_get_max_threads();
#endif
    Bytes reference;
    for (int threads : {1, 2, 8}) {
#if defined(_OPENMP)
      omp_set_num_threads(threads);
#else
      (void)threads;
#endif
      Bytes archive = compress(field.const_view(), opt);
      if (reference.empty()) {
        reference = std::move(archive);
      } else {
        EXPECT_EQ(archive, reference)
            << "block_side " << block_side << " threads " << threads;
      }
    }
#if defined(_OPENMP)
    omp_set_num_threads(saved);
#endif
  }
}

TEST(BlocksTest, DecodedDataIdenticalAcrossThreadCounts) {
  auto field = smooth_field(Dims{36, 36, 18}, 22, 0.02);
  Options opt;
  opt.error_bound = 1e-5;
  opt.block_side = 12;
  Bytes archive = compress(field.const_view(), opt);
#if defined(_OPENMP)
  const int saved = omp_get_max_threads();
#endif
  std::vector<double> reference;
  for (int threads : {1, 2, 8}) {
#if defined(_OPENMP)
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    reader.retrieve(Request::error_bound(1e-3));
    reader.retrieve(Request::full());
    if (reference.empty()) {
      reference = reader.data();
    } else {
      EXPECT_EQ(reader.data(), reference) << "threads " << threads;
    }
  }
#if defined(_OPENMP)
  omp_set_num_threads(saved);
#endif
}

TEST(BlocksTest, RegionRetrievalReadsOnlyIntersectingBlocks) {
  auto field = smooth_field(Dims{48, 48, 48}, 9, 0.02);
  Options opt;
  opt.error_bound = 1e-6;
  opt.relative = false;
  opt.block_side = 16;
  Bytes archive = compress(field.const_view(), opt);
  const std::size_t total = archive.size();

  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  // One interior block's worth of data out of 27 blocks.
  std::array<std::size_t, kMaxRank> lo{16, 16, 16};
  std::array<std::size_t, kMaxRank> hi{32, 32, 32};
  auto st = reader.retrieve(Request::full().within(lo, hi));
  EXPECT_LT(st.bytes_total, total / 4);
  EXPECT_LE(st.guaranteed_error, 1e-6 * (1 + 1e-9));

  double region_err = 0.0;
  const auto strides = Dims({48, 48, 48}).strides();
  for (std::size_t z = lo[0]; z < hi[0]; ++z) {
    for (std::size_t y = lo[1]; y < hi[1]; ++y) {
      for (std::size_t x = lo[2]; x < hi[2]; ++x) {
        std::size_t i = z * strides[0] + y * strides[1] + x;
        region_err = std::max(region_err,
                              std::abs(field[i] - reader.data()[i]));
      }
    }
  }
  EXPECT_LE(region_err, 1e-6 * (1 + 1e-9));
}

TEST(BlocksTest, RegionSpanningBlocksThenFullRefinement) {
  auto field = smooth_field(Dims{40, 40}, 10, 0.05);
  Options opt;
  opt.error_bound = 1e-6;
  opt.relative = false;
  opt.block_side = 16;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);

  // A region straddling four blocks; then refine the whole field and check
  // the mixed per-block states converge to the full-fidelity output.
  std::array<std::size_t, kMaxRank> lo{10, 10};
  std::array<std::size_t, kMaxRank> hi{20, 20};
  reader.retrieve(Request::full().within(lo, hi));
  const auto strides = Dims({40, 40}).strides();
  for (std::size_t z = lo[0]; z < hi[0]; ++z) {
    for (std::size_t y = lo[1]; y < hi[1]; ++y) {
      std::size_t i = z * strides[0] + y;
      EXPECT_NEAR(field[i], reader.data()[i], 1e-6 * (1 + 1e-9));
    }
  }
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-6 * (1 + 1e-9));
}

TEST(BlocksTest, PartialRequestThenRegionGoesToFullFidelity) {
  auto field = smooth_field(Dims{40, 40}, 11, 0.05);
  Options opt;
  opt.error_bound = 1e-7;
  opt.relative = false;
  opt.block_side = 16;
  opt.progressive_threshold = 64;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);

  reader.retrieve(Request::error_bound(1e-3));  // coarse everywhere
  std::array<std::size_t, kMaxRank> lo{0, 0};
  std::array<std::size_t, kMaxRank> hi{16, 16};
  auto st = reader.retrieve(Request::full().within(lo, hi));  // block 0 refined to full
  EXPECT_LE(st.guaranteed_error, 1e-7 * (1 + 1e-9));
  for (std::size_t z = 0; z < 16; ++z) {
    for (std::size_t y = 0; y < 16; ++y) {
      EXPECT_NEAR(field[z * 40 + y], reader.data()[z * 40 + y],
                  1e-7 * (1 + 1e-9));
    }
  }
}

TEST(BlocksTest, RegionOnWholeFieldArchiveEqualsFull) {
  auto field = smooth_field(Dims{32, 32}, 12);
  Options opt;
  opt.error_bound = 1e-5;
  opt.relative = false;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  std::array<std::size_t, kMaxRank> lo{0, 0};
  std::array<std::size_t, kMaxRank> hi{8, 8};
  reader.retrieve(Request::full().within(lo, hi));
  // The single block spans the field, so everything is loaded.
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-5 * (1 + 1e-9));
}

TEST(BlocksTest, BadRegionBoundsRejected) {
  auto field = smooth_field(Dims{16, 16}, 13);
  Options opt;
  opt.block_side = 8;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  std::array<std::size_t, kMaxRank> lo{0, 8};
  std::array<std::size_t, kMaxRank> hi{8, 8};  // empty in dim 1
  EXPECT_THROW(reader.retrieve(Request::full().within(lo, hi)), std::invalid_argument);
  hi = {8, 17};  // out of range in dim 1
  lo = {0, 0};
  EXPECT_THROW(reader.retrieve(Request::full().within(lo, hi)), std::invalid_argument);
}

// ---- forged block tables -------------------------------------------------

TEST(BlocksForged, HeaderBlockCountMismatchRejected) {
  // A coherent v2 header whose block table disagrees with the geometry
  // derived from dims + block_side (here: 1000 tables instead of 4).
  Header h;
  h.dtype = DataType::kFloat64;
  h.dims = Dims{8, 8};
  h.eb = 1e-6;
  h.block_side = 4;
  h.block_levels.resize(1000);
  Bytes raw = h.serialize();
  EXPECT_THROW(Header::parse(raw), std::runtime_error);
}

TEST(BlocksForged, HeaderHugeBlockCountRejected) {
  // Huge dims with a small block side put the derived block count far past
  // the stream size; parse must reject it before any allocation.
  ByteWriter w;
  w.u8(2);  // v2 tag
  w.u8(static_cast<std::uint8_t>(DataType::kFloat64));
  w.u8(2);  // rank
  w.varint(std::size_t{1} << 20);
  w.varint(std::size_t{1} << 20);
  w.f64(1e-6);
  w.u8(0);  // interp
  w.u8(2);  // prefix bits
  w.f64(0.0);
  w.f64(1.0);
  w.varint(2);                      // block_side
  w.varint((std::size_t{1} << 38));  // forged block count (matches geometry)
  Bytes raw = w.take();
  EXPECT_THROW(Header::parse(raw), std::runtime_error);
}

TEST(BlocksForged, HeaderBlockSideOneRejected) {
  ByteWriter w;
  w.u8(2);
  w.u8(static_cast<std::uint8_t>(DataType::kFloat64));
  w.u8(1);
  w.varint(8);
  w.f64(1e-6);
  w.u8(0);
  w.u8(2);
  w.f64(0.0);
  w.f64(1.0);
  w.varint(1);  // block_side 1: every element its own block
  w.varint(8);
  Bytes raw = w.take();
  EXPECT_THROW(Header::parse(raw), std::exception);
}

TEST(BlocksForged, ContainerHeaderVersionMismatchRejected) {
  auto field = smooth_field(Dims{16, 16}, 14);
  Options opt;
  opt.integrity = false;  // a bare v2 container
  Bytes archive = compress(field.const_view(), opt);
  ASSERT_EQ(archive[4], 2);
  // Forge the container version word (bytes 4..7) to v1: the v2 header
  // inside no longer matches the container and the reader must reject it.
  archive[4] = 1;
  MemorySource src(std::move(archive));
  EXPECT_THROW(ProgressiveReader<double> reader(src), std::runtime_error);
}

TEST(BlocksForged, MissingBlockSegmentRejected) {
  auto field = smooth_field(Dims{32, 32}, 15);
  Options opt;
  opt.error_bound = 1e-5;
  opt.block_side = 16;
  Bytes archive = compress(field.const_view(), opt);

  // Rebuild the archive without block 3's base segment.
  MemorySource original{Bytes(archive)};
  Header h = Header::parse(original.header());
  ArchiveBuilder forged;
  forged.set_version(kArchiveV2);
  forged.set_header(original.header());
  for (std::size_t b = 0; b < h.block_levels.size(); ++b) {
    for (std::size_t li = 0; li < h.block_levels[b].size(); ++li) {
      SegmentId base{kSegBase, static_cast<std::uint16_t>(li + 1), 0,
                     static_cast<std::uint32_t>(b)};
      if (b != 3) forged.add_segment(base, original.read_segment(base));
      const LevelHeader& lh = h.block_levels[b][li];
      for (std::uint32_t k = 0; k < lh.n_planes; ++k) {
        SegmentId plane{kSegPlane, static_cast<std::uint16_t>(li + 1), k,
                        static_cast<std::uint32_t>(b)};
        forged.add_segment(plane, original.read_segment(plane));
      }
    }
  }
  MemorySource src(forged.finish());
  ProgressiveReader<double> reader(src);
  EXPECT_THROW(reader.retrieve(Request::full()), std::runtime_error);
}

TEST(BlocksForged, DuplicateSegmentKeyRejected) {
  // The builder refuses duplicate ids (see ArchiveBuilderTest), so forge the
  // duplicate table by hand: two rows with the same key aliasing two payload
  // ranges must still be rejected by the parser.
  const std::uint64_t key = SegmentId{0, 1, 0}.key(kArchiveV1);
  ByteWriter w;
  w.u32(0x41435049u);  // "IPCA"
  w.u32(kArchiveV1);
  w.varint(1);  // header length
  w.u8(1);      // header payload
  w.varint(2);  // two table rows, same key
  w.u64(key);
  w.varint(8);
  w.u64(key);
  w.varint(8);
  Bytes blob = w.take();
  blob.insert(blob.end(), 16, 0xAA);  // both payload ranges
  EXPECT_THROW(MemorySource src(std::move(blob)), std::runtime_error);
}

}  // namespace
}  // namespace ipcomp
