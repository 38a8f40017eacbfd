// Pluggable progressive backends (archive format v3): registry lookups, the
// backend-parameterized round-trip property suite (both backends × 1/2/3-d
// fields × abs/rel bounds × whole-field/block modes), wavelet thread-count
// determinism and region retrieval, and forged-input hardening of the v3
// header (unknown backend id, truncated/oversized metadata, backend-id vs
// segment mismatch).
#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "ipcomp.hpp"
#include "loader/error_model.hpp"
#include "test_util.hpp"

namespace ipcomp {
namespace {

using testutil::linf;
using testutil::smooth_field;

TEST(BackendRegistry, LookupByIdAndName) {
  EXPECT_STREQ(backend_for(BackendId::kInterp).name(), "interp");
  EXPECT_STREQ(backend_for(BackendId::kWavelet).name(), "wavelet");
  ASSERT_NE(backend_by_name("interp"), nullptr);
  ASSERT_NE(backend_by_name("wavelet"), nullptr);
  EXPECT_EQ(backend_by_name("interp")->id(), BackendId::kInterp);
  EXPECT_EQ(backend_by_name("wavelet")->id(), BackendId::kWavelet);
  EXPECT_EQ(backend_by_name("dct"), nullptr);
  EXPECT_TRUE(backend_id_known(0));
  EXPECT_TRUE(backend_id_known(1));
  EXPECT_FALSE(backend_id_known(7));
}

TEST(BackendRegistry, ArchiveFormatFollowsBackend) {
  auto field = smooth_field(Dims{20, 20}, 3);
  Options opt;
  opt.error_bound = 1e-6;
  for (auto backend : {BackendId::kInterp, BackendId::kWavelet}) {
    opt.backend = backend;
    for (std::size_t side : {std::size_t{0}, std::size_t{8}}) {
      opt.block_side = side;
      MemorySource src(compress(field.const_view(), opt));
      // Side 0 (whole field) is a one-block grid in the same container.
      const std::uint32_t expected =
          backend == BackendId::kInterp ? kArchiveV2 : kArchiveV3;
      EXPECT_EQ(src.version(), expected);
      ProgressiveReader<double> reader(src);
      EXPECT_EQ(reader.header().backend, backend);
      EXPECT_EQ(&reader.backend(), &backend_for(backend));
    }
  }
}

// The planner's per-level amplification comes from the archive's backend:
// the interp sweep charges level_amplification for the archive's kernel and
// rank, the wavelet backend's loss tables are already in value units.
TEST(InterpBackend, AmplificationFollowsSweepModel) {
  for (const Dims dims : {Dims{300}, Dims{24, 20}, Dims{12, 10, 9}}) {
    for (InterpKind kind : {InterpKind::kLinear, InterpKind::kCubic}) {
      Options opt;
      opt.interp = kind;
      opt.error_bound = 1e-5;
      MemorySource src(compress(smooth_field(dims, 4).const_view(), opt));
      ProgressiveReader<double> reader(src);
      const Header& h = reader.header();
      ASSERT_EQ(h.interp, kind);
      for (unsigned l = 1; l <= 6; ++l) {
        EXPECT_EQ(reader.backend().amplification(h, l),
                  level_amplification(kind, static_cast<unsigned>(dims.rank()), l))
            << "rank " << dims.rank() << " level " << l;
      }
    }
  }
}

TEST(WaveletBackend, AmplificationIsOne) {
  Options opt;
  opt.backend = BackendId::kWavelet;
  opt.error_bound = 1e-5;
  MemorySource src(compress(smooth_field(Dims{16, 16, 16}, 4).const_view(), opt));
  ProgressiveReader<double> reader(src);
  for (unsigned l = 1; l <= 6; ++l) {
    EXPECT_EQ(reader.backend().amplification(reader.header(), l), 1.0) << l;
  }
}

// ---- backend-parameterized round-trip property suite ---------------------

using RoundTripCase = std::tuple<BackendId, unsigned, bool, std::size_t>;

class BackendRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(BackendRoundTrip, BoundHoldsAtEveryFidelityAndGuaranteeIsMonotone) {
  const auto [backend, rank, relative, block_side] = GetParam();
  const Dims dims = rank == 1   ? Dims{4000}
                    : rank == 2 ? Dims{70, 60}
                                : Dims{40, 34, 22};
  auto field = smooth_field(dims, 17 + rank, 0.04);
  Options opt;
  opt.backend = backend;
  opt.relative = relative;
  opt.error_bound = relative ? 1e-7 : 1e-6;
  opt.block_side = block_side;
  opt.progressive_threshold = 256;
  Bytes archive = compress(field.const_view(), opt);

  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  const double eb = reader.header().eb;
  EXPECT_EQ(reader.header().backend, backend);

  double prev_guarantee = std::numeric_limits<double>::infinity();
  std::size_t prev_bytes = 0;
  for (double factor : {1e4, 1e2, 1e1, 2.0}) {
    auto st = reader.retrieve(Request::error_bound(factor * eb));
    EXPECT_LE(st.guaranteed_error, factor * eb * (1 + 1e-9));
    EXPECT_LE(linf(field.const_view(), reader.data()),
              st.guaranteed_error * (1 + 1e-9))
        << "factor " << factor;
    EXPECT_LE(st.guaranteed_error, prev_guarantee * (1 + 1e-12));
    EXPECT_GE(st.bytes_total, prev_bytes);
    prev_guarantee = st.guaranteed_error;
    prev_bytes = st.bytes_total;
  }
  auto full = reader.retrieve(Request::full());
  EXPECT_LE(full.guaranteed_error, eb * (1 + 1e-12));
  EXPECT_LE(linf(field.const_view(), reader.data()), eb * (1 + 1e-9));
  EXPECT_LE(full.bytes_total, src.total_size());
}

std::string round_trip_case_name(
    const ::testing::TestParamInfo<RoundTripCase>& info) {
  const auto [backend, rank, relative, block_side] = info.param;
  return std::string(to_string(backend)) + "_" + std::to_string(rank) + "d_" +
         (relative ? "rel" : "abs") +
         (block_side == 0 ? "_whole" : "_b" + std::to_string(block_side));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendRoundTrip,
    ::testing::Combine(::testing::Values(BackendId::kInterp,
                                         BackendId::kWavelet),
                       ::testing::Values(1u, 2u, 3u), ::testing::Bool(),
                       ::testing::Values(std::size_t{0}, std::size_t{32})),
    round_trip_case_name);

TEST(WaveletBackend, FloatRoundTripWithinBound) {
  auto field = smooth_field<float>(Dims{60, 44, 20}, 9, 0.05);
  Options opt;
  opt.backend = BackendId::kWavelet;
  opt.error_bound = 1e-5;
  opt.block_side = 16;
  opt.progressive_threshold = 256;
  MemorySource src(compress(field.const_view(), opt));
  ProgressiveReader<float> reader(src);
  const double eb = reader.header().eb;
  auto coarse = reader.retrieve(Request::error_bound(100 * eb));
  EXPECT_LE(linf(field.const_view(), reader.data()),
            coarse.guaranteed_error * (1 + 1e-6));
  reader.retrieve(Request::full());
  EXPECT_LE(linf(field.const_view(), reader.data()), eb * (1 + 1e-6));
}

TEST(WaveletBackend, StepwiseEndsIdenticalToOneShot) {
  // Wavelet refinement rebuilds from the updated codes, so a stepwise
  // retrieval must end bitwise identical to a one-shot full request.
  auto field = smooth_field(Dims{36, 30, 14}, 11, 0.03);
  Options opt;
  opt.backend = BackendId::kWavelet;
  opt.error_bound = 1e-7;
  opt.progressive_threshold = 128;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource a{Bytes(archive)}, b{Bytes(archive)};
  ProgressiveReader<double> stepwise(a), oneshot(b);
  const double eb = stepwise.header().eb;
  for (double f : {1e5, 1e3, 1e1}) stepwise.retrieve(Request::error_bound(f * eb));
  stepwise.retrieve(Request::full());
  oneshot.retrieve(Request::full());
  EXPECT_EQ(stepwise.data(), oneshot.data());
}

TEST(WaveletBackend, RegionRetrievalReadsOnlyIntersectingBlocks) {
  auto field = smooth_field(Dims{48, 40, 33}, 13, 0.02);
  Options opt;
  opt.backend = BackendId::kWavelet;
  opt.error_bound = 1e-6;
  opt.block_side = 16;
  Bytes archive = compress(field.const_view(), opt);
  const std::size_t total = archive.size();
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  const double eb = reader.header().eb;
  std::array<std::size_t, kMaxRank> lo{4, 4, 4}, hi{20, 18, 12};
  auto st = reader.retrieve(Request::full().within(lo, hi));
  EXPECT_LT(st.bytes_total, total / 2) << "region read should skip blocks";
  EXPECT_DOUBLE_EQ(st.guaranteed_error, eb);
  double worst = 0.0;
  const Dims& dims = reader.header().dims;
  for (std::size_t z = lo[0]; z < hi[0]; ++z) {
    for (std::size_t y = lo[1]; y < hi[1]; ++y) {
      for (std::size_t x = lo[2]; x < hi[2]; ++x) {
        const std::size_t i = (z * dims[1] + y) * dims[2] + x;
        worst = std::max(worst, std::abs(field[i] - reader.data()[i]));
      }
    }
  }
  EXPECT_LE(worst, eb * (1 + 1e-9));
}

TEST(WaveletBackend, NonFiniteValuesSurviveRoundTrip) {
  auto field = smooth_field(Dims{24, 24}, 15);
  field[5] = std::numeric_limits<double>::quiet_NaN();
  field[100] = std::numeric_limits<double>::infinity();
  field[200] = -std::numeric_limits<double>::infinity();
  Options opt;
  opt.backend = BackendId::kWavelet;
  opt.error_bound = 1e-6;
  MemorySource src(compress(field.const_view(), opt));
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  const double eb = reader.header().eb;
  for (std::size_t i = 0; i < field.count(); ++i) {
    if (std::isnan(field[i])) {
      EXPECT_TRUE(std::isnan(reader.data()[i])) << i;
    } else if (std::isinf(field[i])) {
      EXPECT_EQ(reader.data()[i], field[i]) << i;
    } else {
      EXPECT_LE(std::abs(field[i] - reader.data()[i]), eb * (1 + 1e-9)) << i;
    }
  }
}

TEST(WaveletBackend, ArchiveBytesIdenticalAcrossThreadCounts) {
  auto field = smooth_field(Dims{40, 40, 24}, 21, 0.03);
  for (std::size_t block_side : {std::size_t{0}, std::size_t{16}}) {
    Options opt;
    opt.backend = BackendId::kWavelet;
    opt.error_bound = 1e-5;
    opt.block_side = block_side;
    opt.progressive_threshold = 256;
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

// ---- forged-input hardening of the v3 header -----------------------------

Bytes wavelet_archive() {
  auto field = smooth_field(Dims{24, 20}, 31);
  Options opt;
  opt.backend = BackendId::kWavelet;
  opt.error_bound = 1e-6;
  opt.block_side = 8;
  opt.progressive_threshold = 64;
  // These forgeries patch the v3 *header*; splice_header rebuilds the
  // container at pre-v4 offsets, so keep the fixture a pre-v4 container.
  opt.integrity = false;
  return compress(field.const_view(), opt);
}

/// Replace the serialized header blob of an archive, re-encoding the length
/// prefix; the segment table and payloads are kept verbatim.
Bytes splice_header(const Bytes& blob, const Bytes& new_header) {
  ArchiveIndex idx = ArchiveIndex::parse({blob.data(), blob.size()}, blob.size());
  Bytes out(blob.begin(), blob.begin() + 8);  // magic + version
  ByteWriter len;
  len.varint(new_header.size());
  Bytes len_bytes = len.take();
  out.insert(out.end(), len_bytes.begin(), len_bytes.end());
  out.insert(out.end(), new_header.begin(), new_header.end());
  out.insert(out.end(),
             blob.begin() + idx.header_offset + idx.header_length, blob.end());
  return out;
}

Bytes header_of(const Bytes& blob) {
  ArchiveIndex idx = ArchiveIndex::parse({blob.data(), blob.size()}, blob.size());
  return Bytes(blob.begin() + idx.header_offset,
               blob.begin() + idx.header_offset + idx.header_length);
}

TEST(BackendForged, UnknownBackendIdRejected) {
  Bytes blob = wavelet_archive();
  Bytes header = header_of(blob);
  ASSERT_EQ(header[0], 3);  // v3 tag
  header[1] = 0x63;         // no such backend
  EXPECT_THROW(Header::parse(header), std::runtime_error);
  MemorySource src(splice_header(blob, header));
  EXPECT_THROW(ProgressiveReader<double> reader(src), std::runtime_error);
}

TEST(BackendForged, TruncatedMetadataBlobRejected) {
  Bytes blob = wavelet_archive();
  Bytes header = header_of(blob);
  // Keep tag, backend id and the metadata length, then cut the stream short:
  // the declared blob length now exceeds the remaining bytes.
  Bytes truncated(header.begin(), header.begin() + 5);
  EXPECT_THROW(Header::parse(truncated), std::runtime_error);
  MemorySource src(splice_header(blob, truncated));
  EXPECT_THROW(ProgressiveReader<double> reader(src), std::runtime_error);
}

TEST(BackendForged, OversizedMetadataBlobRejected) {
  Bytes blob = wavelet_archive();
  Header h = Header::parse(header_of(blob));
  h.backend_meta.assign(64, 0x41);  // wavelet expects exactly 9 bytes
  MemorySource src(splice_header(blob, h.serialize()));
  EXPECT_THROW(ProgressiveReader<double> reader(src), std::runtime_error);
}

TEST(BackendForged, UndersizedMetadataBlobRejected) {
  Bytes blob = wavelet_archive();
  Header h = Header::parse(header_of(blob));
  h.backend_meta.assign(3, 0x01);
  MemorySource src(splice_header(blob, h.serialize()));
  EXPECT_THROW(ProgressiveReader<double> reader(src), std::runtime_error);
}

TEST(BackendForged, BadStepScaleRejected) {
  Bytes blob = wavelet_archive();
  Header h = Header::parse(header_of(blob));
  ByteWriter meta;
  meta.u8(1);
  meta.f64(-2.0);  // step scale must be positive and finite
  h.backend_meta = meta.take();
  MemorySource src(splice_header(blob, h.serialize()));
  EXPECT_THROW(ProgressiveReader<double> reader(src), std::runtime_error);
}

TEST(BackendForged, BackendIdSegmentMismatchRejected) {
  // Relabel a wavelet archive's header as interp (still v3): the payload's
  // auxiliary segments are not a kind the interp backend defines, so the
  // reader must refuse rather than misinterpret the codes.
  Bytes blob = wavelet_archive();
  Bytes header = header_of(blob);
  ASSERT_EQ(header[1], static_cast<std::uint8_t>(BackendId::kWavelet));
  // Patch the raw backend id byte: the result still parses (the interp
  // backend ignores metadata blobs), so only the payload can give it away.
  header[1] = static_cast<std::uint8_t>(BackendId::kInterp);
  MemorySource src(splice_header(blob, header));
  EXPECT_THROW(
      {
        try {
          ProgressiveReader<double> reader(src);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("segment kind"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(BackendRegistry, NonFiniteErrorBoundRejected) {
  auto field = smooth_field(Dims{8, 8}, 5);
  for (auto backend : {BackendId::kInterp, BackendId::kWavelet}) {
    Options opt;
    opt.backend = backend;
    opt.error_bound = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument);
    opt.error_bound = std::numeric_limits<double>::infinity();
    EXPECT_THROW(compress(field.const_view(), opt), std::invalid_argument);
  }
}

TEST(BackendForged, BlockGridProductOverflowRejected) {
  // Rank-4 dims of 2^31 with block side 2 give 2^30 blocks per dimension;
  // the unchecked product would wrap modulo 2^64 to 0 and a forged block
  // count of 0 would match the "geometry" — the grid must refuse instead.
  ByteWriter w;
  w.u8(3);  // v3 tag
  w.u8(static_cast<std::uint8_t>(BackendId::kWavelet));
  w.varint(0);  // empty metadata blob
  w.u8(static_cast<std::uint8_t>(DataType::kFloat64));
  w.u8(4);  // rank
  for (int i = 0; i < 4; ++i) w.varint(std::size_t{1} << 31);
  w.f64(1e-6);
  w.u8(0);  // interp
  w.u8(2);  // prefix bits
  w.f64(0.0);
  w.f64(1.0);
  w.varint(2);  // block_side
  w.varint(0);  // forged block count matching the wrapped product
  Bytes raw = w.take();
  EXPECT_THROW(Header::parse(raw), std::runtime_error);
  EXPECT_THROW(BlockGrid::analyze(Dims{std::size_t{1} << 31, std::size_t{1} << 31,
                                       std::size_t{1} << 31, std::size_t{1} << 31},
                                  2),
               std::runtime_error);
}

TEST(BackendForged, ContainerHeaderVersionMismatchRejected) {
  // A v3 header inside a v2 container (and vice versa) is a forgery even
  // when both parse cleanly in isolation.
  Bytes blob = wavelet_archive();
  blob[4] = 2;  // container version word (little-endian u32 at offset 4)
  MemorySource src(std::move(blob));
  EXPECT_THROW(ProgressiveReader<double> reader(src), std::runtime_error);
}

}  // namespace
}  // namespace ipcomp
