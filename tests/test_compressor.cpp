#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "bitplane/bitplane.hpp"
#include "core/blocks.hpp"
#include "interp/sweep.hpp"
#include "ipcomp.hpp"
#include "quant/quantizer.hpp"
#include "test_util.hpp"

namespace ipcomp {
namespace {

using testutil::linf;
using testutil::ScopedThreads;
using testutil::smooth_field;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct CompressCase {
  Dims dims;
  double eb;
  InterpKind kind;
};

class CompressorRoundTrip : public ::testing::TestWithParam<CompressCase> {};

TEST_P(CompressorRoundTrip, FullRetrievalWithinErrorBound) {
  const auto& c = GetParam();
  auto field = smooth_field(c.dims, /*seed=*/7, /*noise=*/0.05);
  Options opt;
  opt.error_bound = c.eb;
  opt.relative = false;
  opt.interp = c.kind;
  Bytes archive = compress(field.const_view(), opt);

  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  auto st = reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), c.eb * (1 + 1e-9));
  EXPECT_LE(st.guaranteed_error, c.eb * (1 + 1e-9));
  EXPECT_EQ(reader.data().size(), c.dims.count());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CompressorRoundTrip,
    ::testing::Values(
        CompressCase{Dims{1000}, 1e-3, InterpKind::kCubic},
        CompressCase{Dims{1000}, 1e-3, InterpKind::kLinear},
        CompressCase{Dims{1}, 1e-3, InterpKind::kCubic},
        CompressCase{Dims{7}, 1e-6, InterpKind::kCubic},
        CompressCase{Dims{64, 64}, 1e-4, InterpKind::kCubic},
        CompressCase{Dims{63, 65}, 1e-4, InterpKind::kLinear},
        CompressCase{Dims{17, 5}, 1e-8, InterpKind::kCubic},
        CompressCase{Dims{24, 24, 24}, 1e-4, InterpKind::kCubic},
        CompressCase{Dims{10, 30, 20}, 1e-2, InterpKind::kLinear},
        CompressCase{Dims{31, 17, 9}, 1e-6, InterpKind::kCubic},
        CompressCase{Dims{6, 6, 6, 6}, 1e-4, InterpKind::kCubic}),
    [](const auto& info) {
      std::string s = info.param.dims.to_string() + "_" +
                      (info.param.kind == InterpKind::kCubic ? "cubic" : "linear") +
                      "_eb" + std::to_string(static_cast<int>(-std::log10(info.param.eb)));
      for (auto& ch : s) {
        if (ch == 'x') ch = '_';
      }
      return s;
    });

TEST(Compressor, RelativeErrorBound) {
  auto field = smooth_field(Dims{40, 40}, 3);
  Options opt;
  opt.error_bound = 1e-4;
  opt.relative = true;
  const double range = testutil::value_range(field.const_view());
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-4 * range * (1 + 1e-9));
  EXPECT_NEAR(reader.header().eb, 1e-4 * range, 1e-12 * range);
}

TEST(Compressor, SmoothDataCompressesWell) {
  auto field = smooth_field(Dims{64, 64, 64}, 5, /*noise=*/0.0);
  Options opt;
  opt.error_bound = 1e-4;
  Bytes archive = compress(field.const_view(), opt);
  double ratio = static_cast<double>(field.count() * sizeof(double)) /
                 static_cast<double>(archive.size());
  EXPECT_GT(ratio, 20.0);  // smooth fields must compress far below raw size
}

TEST(Compressor, CubicExactOnCubicPolynomials) {
  // Cubic spline interpolation reproduces cubic polynomials exactly at
  // interior points, so a polynomial field compresses to almost nothing with
  // the cubic kernel while the linear kernel pays for curvature everywhere.
  Dims dims{48, 48, 48};
  NdArray<double> field(dims);
  auto strides = dims.strides();
  for (std::size_t i = 0; i < dims.count(); ++i) {
    double x = static_cast<double>(i / strides[0]) / 48.0;
    double y = static_cast<double>((i / strides[1]) % 48) / 48.0;
    double z = static_cast<double>(i % 48) / 48.0;
    field[i] = x * x * x - 2 * y * y * y + 0.5 * z * z * z + x * y * z;
  }
  Options copt, lopt;
  copt.error_bound = lopt.error_bound = 1e-6;
  copt.interp = InterpKind::kCubic;
  lopt.interp = InterpKind::kLinear;
  auto ca = compress(field.const_view(), copt);
  auto la = compress(field.const_view(), lopt);
  EXPECT_LT(ca.size(), la.size());
}

TEST(Compressor, FloatInput) {
  auto field = smooth_field<float>(Dims{32, 32, 32}, 7, 0.01f);
  Options opt;
  opt.error_bound = 1e-3;
  opt.relative = false;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<float> reader(src);
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-3 * (1 + 1e-6));
}

TEST(Compressor, TypeMismatchRejected) {
  auto field = smooth_field(Dims{16, 16}, 8);
  Bytes archive = compress(field.const_view(), {});
  MemorySource src(std::move(archive));
  EXPECT_THROW(ProgressiveReader<float> reader(src), std::runtime_error);
}

TEST(Compressor, ConstantField) {
  NdArray<double> field(Dims{20, 20});
  for (std::size_t i = 0; i < field.count(); ++i) field[i] = 42.0;
  Options opt;
  opt.error_bound = 1e-6;
  Bytes archive = compress(field.const_view(), opt);
  EXPECT_LT(archive.size(), 2000u);  // nearly nothing to store
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-6);
}

TEST(Compressor, ExtremeValuesBecomeOutliers) {
  auto field = smooth_field(Dims{32, 32}, 9);
  field[100] = 1e18;   // far outside the quantizable range for a tight eb
  field[500] = -1e18;
  Options opt;
  opt.error_bound = 1e-9;
  opt.relative = false;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  // Outliers are stored exactly.
  EXPECT_EQ(reader.data()[100], 1e18);
  EXPECT_EQ(reader.data()[500], -1e18);
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-9 * (1 + 1e-9));
  std::uint64_t outliers = 0;
  ASSERT_EQ(reader.header().block_levels.size(), 1u);  // one block
  for (auto& l : reader.header().block_levels[0]) outliers += l.outlier_count;
  EXPECT_GE(outliers, 2u);
}

TEST(Compressor, InvalidErrorBoundRejected) {
  auto field = smooth_field(Dims{8, 8}, 10);
  Options opt;
  opt.error_bound = 0.0;
  EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument);
  opt.error_bound = -1.0;
  EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument);
}

TEST(Compressor, RelativeBoundOnOverflowingRangeStaysFinite) {
  // max − min = 3e308 overflows a double; the bound must not become inf.
  auto field = smooth_field(Dims{24, 24}, 12);
  for (std::size_t i = 0; i < field.count(); ++i) field[i] *= 1e307;
  field[3] = 1.5e308;
  field[400] = -1.5e308;
  Options opt;
  opt.error_bound = 1e-3;
  opt.relative = true;
  const double eb = resolve_error_bound(field.const_view(), opt);
  EXPECT_EQ(eb, 1e-3 * 1.5e308 - 1e-3 * -1.5e308);
  ASSERT_TRUE(std::isfinite(eb));

  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  EXPECT_EQ(reader.header().eb, eb);
  const RetrievalStats st = reader.retrieve(Request::full());
  EXPECT_TRUE(std::isfinite(st.guaranteed_error));
  EXPECT_LE(st.guaranteed_error, eb * (1 + 1e-9));
  EXPECT_LE(linf(field.const_view(), reader.data()), eb * (1 + 1e-9));

  // Finite ranges keep the plain eb · (max − min).
  EXPECT_EQ(resolve_error_bound(opt, -1.0, 3.0), 1e-3 * 4.0);
  // Still not finite after scaling first: rejected, never written as inf.
  opt.error_bound = 10.0;
  EXPECT_THROW(resolve_error_bound(opt, -1.5e308, 1.5e308),
               std::invalid_argument);
  EXPECT_THROW(resolve_error_bound(opt, kNaN, 1.0), std::invalid_argument);
}

/// The bound scan the compressor's chunked parallel min/max must reproduce:
/// one serial pass over the finite values, (0, 0) when none is finite.
std::pair<double, double> serial_min_max(const NdArray<double>& f) {
  double lo = kInf;
  double hi = -kInf;
  for (std::size_t i = 0; i < f.count(); ++i) {
    if (std::isfinite(f[i])) {
      lo = std::min(lo, f[i]);
      hi = std::max(hi, f[i]);
    }
  }
  if (!std::isfinite(lo)) lo = hi = 0.0;
  return {lo, hi};
}

TEST(Compressor, BoundScanMergesChunksLikeASerialScan) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;  // scan chunk size
  const Dims dims{72, 72, 72};                          // 5.7 chunks
  ASSERT_GT(dims.count(), 4 * kChunk);

  // Values >= 1 everywhere, so the planted zeros are the minimum; the zero
  // seen first by a serial scan wins the ±0 tie, whichever sign it has.
  auto base = smooth_field(dims, 31, 0.01);
  for (std::size_t i = 0; i < base.count(); ++i) base[i] = 1.0 + std::abs(base[i]);
  // Non-finite values on and around chunk boundaries must be skipped, and
  // the maximum appears twice, in different chunks.
  for (std::size_t i : {std::size_t{0}, 2 * kChunk, 2 * kChunk + 1}) base[i] = kNaN;
  for (std::size_t i : {kChunk - 1, 4 * kChunk}) base[i] = kInf;
  for (std::size_t i : {kChunk, base.count() - 1}) base[i] = -kInf;
  base[kChunk + 11] = 9.5;
  base[4 * kChunk + 9] = 9.5;

  NdArray<double> neg_first = base;
  neg_first[kChunk + 5] = -0.0;
  neg_first[3 * kChunk + 7] = 0.0;
  NdArray<double> pos_first = base;
  pos_first[kChunk + 5] = 0.0;
  pos_first[3 * kChunk + 7] = -0.0;
  NdArray<double> non_finite(dims);
  const double cycle[] = {kNaN, kInf, -kInf};
  for (std::size_t i = 0; i < non_finite.count(); ++i) non_finite[i] = cycle[i % 3];

  const std::pair<const char*, const NdArray<double>*> fields[] = {
      {"neg_first", &neg_first}, {"pos_first", &pos_first},
      {"non_finite", &non_finite}};
  for (const auto& [name, field] : fields) {
    const auto [lo, hi] = serial_min_max(*field);
    Options opt;
    opt.error_bound = 1e-4;
    opt.relative = true;
    opt.block_side = 32;
    const double eb = resolve_error_bound(opt, lo, hi);
    Bytes reference;
    for (int threads : {1, 2, 8}) {
      ScopedThreads pin(threads);
      EXPECT_TRUE(same_bits(resolve_error_bound(field->const_view(), opt), eb))
          << name << " threads " << threads;
      Bytes archive = compress(field->const_view(), opt);
      MemorySource src{Bytes(archive)};
      ProgressiveReader<double> reader(src);
      const Header& h = reader.header();
      EXPECT_TRUE(same_bits(h.data_min, lo)) << name << " threads " << threads;
      EXPECT_TRUE(same_bits(h.data_max, hi)) << name << " threads " << threads;
      EXPECT_TRUE(same_bits(h.eb, eb)) << name << " threads " << threads;
      if (reference.empty()) {
        reference = std::move(archive);
      } else {
        EXPECT_EQ(archive, reference) << name << " threads " << threads;
      }
    }
  }
  // The reference scan itself resolves the planted cases as intended.
  EXPECT_TRUE(same_bits(serial_min_max(neg_first).first, -0.0));
  EXPECT_TRUE(same_bits(serial_min_max(pos_first).first, 0.0));
  EXPECT_EQ(serial_min_max(neg_first).second, 9.5);
  EXPECT_EQ(serial_min_max(non_finite), std::make_pair(0.0, 0.0));
}

/// Per-block, per-level outlier counts of a strided in-place sweep over a
/// copy of the whole field — an independent reference for the backend, which
/// sweeps a dense block-local copy instead.
std::vector<std::vector<std::uint64_t>> reference_outlier_counts(
    const NdArray<double>& field, const BlockGrid& grid, double eb,
    InterpKind kind) {
  ScopedThreads serial(1);  // the counters below are not atomic
  std::vector<double> work = field.vector();
  const LinearQuantizer quant(eb);
  const auto estrides = field.dims().strides();
  std::vector<std::vector<std::uint64_t>> counts(grid.n_blocks);
  for (std::size_t b = 0; b < grid.n_blocks; ++b) {
    const LevelStructure ls = LevelStructure::analyze(grid.block_dims(b));
    counts[b].assign(ls.num_levels, 0);
    const std::size_t org = grid.origin_linear(b);
    interpolation_sweep_strided(
        work.data() + org, ls, kind, estrides,
        [&](unsigned li, std::size_t, std::size_t idx, double pred) {
          const double orig = field[org + idx];
          std::int64_t code;
          double recon;
          if (quant.quantize(orig, pred, code, recon)) return recon;
          ++counts[b][li];
          return orig;
        });
  }
  return counts;
}

TEST(Compressor, OutliersRoundTripThroughBlockLocalBuffers) {
  const Dims dims{37, 29, 22};  // no extent is a multiple of the block side
  auto field = smooth_field(dims, 17, 0.01);
  const double nan = std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeefULL});
  const double big = 1e12;  // code 1e12 / 2eb is far past kCodeCap
  // Block corners, faces and the clipped far corner of a 16-block grid.
  const std::pair<std::array<std::size_t, kMaxRank>, double> planted[] = {
      {{0, 0, 0}, nan},     {{15, 15, 15}, kInf}, {{16, 16, 16}, -kInf},
      {{16, 0, 0}, big},    {{36, 28, 21}, -big}, {{31, 15, 21}, nan},
      {{20, 16, 10}, kInf}, {{15, 28, 0}, -big},  {{32, 16, 16}, big}};
  std::vector<bool> is_planted(dims.count(), false);
  for (const auto& [at, v] : planted) {
    field[dims.linear(at)] = v;
    is_planted[dims.linear(at)] = true;
  }

  Options opt;
  opt.error_bound = 1e-6;
  opt.relative = false;
  for (std::size_t block_side : {std::size_t{16}, std::size_t{0}}) {
    opt.block_side = block_side;
    Bytes reference;
    for (int threads : {1, 8}) {
      ScopedThreads pin(threads);
      Bytes archive = compress(field.const_view(), opt);
      if (reference.empty()) {
        reference = std::move(archive);
      } else {
        EXPECT_EQ(archive, reference) << "block_side " << block_side;
      }
    }

    MemorySource src{Bytes(reference)};
    ProgressiveReader<double> reader(src);
    reader.retrieve(Request::full());
    const Header& h = reader.header();
    const BlockGrid grid = BlockGrid::analyze(dims, block_side);
    const auto expected =
        reference_outlier_counts(field, grid, opt.error_bound, opt.interp);
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < grid.n_blocks; ++b) {
      const auto& levels = h.block_levels[b];
      ASSERT_EQ(levels.size(), expected[b].size());
      for (std::size_t li = 0; li < levels.size(); ++li) {
        EXPECT_EQ(levels[li].outlier_count, expected[b][li])
            << "block_side " << block_side << " block " << b << " level " << li;
        total += levels[li].outlier_count;
      }
    }
    EXPECT_GE(total, std::size(planted));

    const std::vector<double>& out = reader.data();
    for (const auto& [at, v] : planted) {
      EXPECT_TRUE(same_bits(out[dims.linear(at)], v))
          << "block_side " << block_side << " at " << dims.linear(at);
    }
    std::size_t violations = 0;  // negated test so a NaN error counts too
    for (std::size_t i = 0; i < dims.count(); ++i) {
      if (!is_planted[i] && !(std::abs(out[i] - field[i]) <= opt.error_bound)) {
        ++violations;
      }
    }
    EXPECT_EQ(violations, 0u) << "block_side " << block_side;
  }
}

TEST(Compressor, HeaderDescribesArchive) {
  auto field = smooth_field(Dims{40, 30, 20}, 11);
  Options opt;
  opt.error_bound = 1e-5;
  opt.interp = InterpKind::kCubic;
  opt.prefix_bits = 2;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  const Header& h = reader.header();
  EXPECT_EQ(h.dims, Dims({40, 30, 20}));
  EXPECT_EQ(h.dtype, DataType::kFloat64);
  EXPECT_EQ(h.interp, InterpKind::kCubic);
  EXPECT_EQ(h.prefix_bits, 2u);
  // Compressed whole: one block whose side is the largest extent.
  EXPECT_EQ(h.format, 2u);
  EXPECT_EQ(h.block_side, 40u);
  ASSERT_EQ(h.block_levels.size(), 1u);
  const auto& levels = h.block_levels[0];
  EXPECT_EQ(levels.size(), LevelStructure::analyze(h.dims).num_levels);
  std::size_t total = 0;
  for (auto& l : levels) total += l.count;
  EXPECT_EQ(total, field.count());
}

TEST(Compressor, HeaderForgedLevelCountRejected) {
  Header h;
  h.dtype = DataType::kFloat64;
  h.dims = Dims{8};
  h.eb = 1e-6;
  h.interp = InterpKind::kCubic;
  h.prefix_bits = 0;
  h.data_min = 0.0;
  h.data_max = 1.0;
  h.block_side = 8;
  h.block_levels.resize(1);
  Bytes raw = h.serialize();
  // With zero levels in the one block, its level-count varint is the final
  // byte; replace it
  // with a huge ten-byte varint.  parse() must reject the count instead of
  // letting it drive a multi-terabyte resize().
  ASSERT_EQ(raw.back(), 0x00);
  raw.pop_back();
  raw.insert(raw.end(), 9, 0xFF);
  raw.push_back(0x01);
  EXPECT_THROW(Header::parse(raw), std::runtime_error);
}

// The header stores prefix_bits and the interpolation kind in one byte each,
// so compress() rejects what it could not record: prefix_bits 256 used to
// encode with 256 and store 0 (on a 32^3 field: L-inf 4.5 against a
// guaranteed 3e-6).
TEST(Compressor, UnrecordableOptionsRejected) {
  auto field = smooth_field(Dims{16, 16}, 31);
  Options opt;
  opt.block_side = 8;
  opt.prefix_bits = kPlaneCount;  // the largest that means anything
  EXPECT_NO_THROW(compress(field.const_view(), opt));
  for (unsigned prefix : {kPlaneCount + 1, 256u, 258u}) {
    opt.prefix_bits = prefix;
    EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument)
        << "prefix_bits " << prefix;
  }
  opt.prefix_bits = 2;
  opt.interp = static_cast<InterpKind>(2);
  EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument);
}

// An interpolation byte other than linear (0) or cubic (1) would sweep with
// linear kernels while the error model prices cubic ones.
TEST(Compressor, HeaderUnknownInterpKindRejected) {
  Header h;
  h.dims = Dims{8};
  h.block_side = 8;
  h.block_levels.resize(1);
  Bytes raw = h.serialize();
  // tag, dtype, rank, one extent varint, then the f64 eb: the interp byte.
  constexpr std::size_t kInterpAt = 4 + 8;
  ASSERT_EQ(raw[kInterpAt], static_cast<std::uint8_t>(InterpKind::kCubic));
  raw[kInterpAt] = static_cast<std::uint8_t>(InterpKind::kLinear);
  EXPECT_EQ(Header::parse(raw).interp, InterpKind::kLinear);
  raw[kInterpAt] = 2;
  EXPECT_THROW(Header::parse(raw), std::runtime_error);
}

// A rank-1 field longer than 2^32 - 1 compressed whole is one block whose
// side is its extent; the side is a varint, so the header carries it.
TEST(Compressor, HeaderBlockSideAboveU32RoundTrips) {
  constexpr std::uint64_t kSide = 5'000'000'000ull;
  Header h;
  h.dims = Dims{static_cast<std::size_t>(kSide)};
  h.block_side = kSide;
  h.block_levels.resize(1);
  const Header back = Header::parse(h.serialize());
  EXPECT_EQ(back.block_side, kSide);
  EXPECT_EQ(back.dims, h.dims);
  EXPECT_EQ(back.block_levels.size(), 1u);
}

TEST(Compressor, HeaderSerializationRoundTrip) {
  Header h;
  h.dtype = DataType::kFloat32;
  h.dims = Dims{12, 34};
  h.eb = 3.5e-7;
  h.interp = InterpKind::kLinear;
  h.prefix_bits = 3;
  h.data_min = -2.5;
  h.data_max = 9.75;
  h.block_side = 34;  // one block: the side is the largest extent
  h.block_levels.resize(1);
  auto& levels = h.block_levels[0];
  levels.resize(2);
  levels[0].count = 300;
  levels[0].progressive = true;
  levels[0].n_planes = 5;
  levels[0].loss = {0, 1, 2, 5, 10, 21};
  levels[0].outlier_count = 3;
  levels[1].count = 108;
  levels[1].progressive = false;
  levels[1].n_planes = 0;
  levels[1].loss = {0};
  Bytes raw = h.serialize();
  Header back = Header::parse(raw);
  EXPECT_EQ(back.dtype, h.dtype);
  EXPECT_EQ(back.dims, h.dims);
  EXPECT_EQ(back.eb, h.eb);
  EXPECT_EQ(back.interp, h.interp);
  EXPECT_EQ(back.prefix_bits, h.prefix_bits);
  EXPECT_EQ(back.data_min, h.data_min);
  EXPECT_EQ(back.data_max, h.data_max);
  EXPECT_EQ(back.format, 2u);
  EXPECT_EQ(back.block_side, 34u);
  ASSERT_EQ(back.block_levels.size(), 1u);
  const auto& back_levels = back.block_levels[0];
  ASSERT_EQ(back_levels.size(), 2u);
  EXPECT_EQ(back_levels[0].loss, levels[0].loss);
  EXPECT_EQ(back_levels[0].outlier_count, 3u);
  EXPECT_FALSE(back_levels[1].progressive);
}

TEST(Compressor, PrefixBitsVariantsRoundTrip) {
  auto field = smooth_field(Dims{32, 32, 16}, 12, 0.02);
  for (unsigned prefix : {0u, 1u, 2u, 3u}) {
    Options opt;
    opt.error_bound = 1e-4;
    opt.prefix_bits = prefix;
    Bytes archive = compress(field.const_view(), opt);
    MemorySource src(std::move(archive));
    ProgressiveReader<double> reader(src);
    reader.retrieve(Request::full());
    double range = testutil::value_range(field.const_view());
    EXPECT_LE(linf(field.const_view(), reader.data()), 1e-4 * range * (1 + 1e-9))
        << "prefix=" << prefix;
  }
}

TEST(Compressor, FileBackedArchive) {
  auto field = smooth_field(Dims{32, 32}, 13);
  Options opt;
  opt.error_bound = 1e-5;
  Bytes archive = compress(field.const_view(), opt);
  std::string path = ::testing::TempDir() + "/ipcomp_roundtrip.ipc";
  write_file(path, archive);

  FileSource src(path);
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  double range = testutil::value_range(field.const_view());
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-5 * range * (1 + 1e-9));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ipcomp
