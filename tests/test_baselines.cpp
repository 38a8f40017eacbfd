#include <gtest/gtest.h>

#include "baselines/ipcomp_adapter.hpp"
#include "baselines/multi_fidelity.hpp"
#include "baselines/residual.hpp"
#include "baselines/sz3.hpp"
#include "coding/lzh.hpp"
#include "mgard/mgard.hpp"
#include "test_util.hpp"
#include "transform/zfp.hpp"
#include "wavelet/sperr.hpp"

namespace ipcomp {
namespace {

using testutil::linf;
using testutil::smooth_field;

/// A Huffman table whose varint alphabet (2^40) no compressor could have
/// written, inside a valid LZH stream: the blob layout both baselines parse
/// after their headers.
Bytes forged_code_table_blob() {
  ByteWriter w;
  w.varint(std::uint64_t{1} << 40);  // alphabet size
  w.varint(0);                       // used symbols
  w.varint(0);                       // bitstream size
  const Bytes raw = w.take();
  return lzh_compress({raw.data(), raw.size()});
}

// ------------------------------------------------------------------- SZ3 --

TEST(Sz3, RoundTripWithinBound) {
  auto field = smooth_field(Dims{40, 30, 20}, 1, 0.1);
  Sz3Compressor sz3;
  for (double eb : {1e-2, 1e-4, 1e-6}) {
    Bytes archive = sz3.compress(field.const_view(), eb);
    auto recon = sz3.decompress(archive);
    EXPECT_LE(linf(field.const_view(), recon), eb * (1 + 1e-9)) << eb;
  }
}

TEST(Sz3, CompressesSmoothData) {
  auto field = smooth_field(Dims{64, 64, 64}, 2, 0.0);
  Sz3Compressor sz3;
  Bytes archive = sz3.compress(field.const_view(), 1e-4);
  EXPECT_GT(static_cast<double>(field.count() * 8) / archive.size(), 20.0);
}

TEST(Sz3, OutliersStoredExactly) {
  auto field = smooth_field(Dims{32, 32}, 3);
  field[77] = 1e17;
  Sz3Compressor sz3;
  Bytes archive = sz3.compress(field.const_view(), 1e-8);
  auto recon = sz3.decompress(archive);
  EXPECT_EQ(recon[77], 1e17);
  EXPECT_LE(linf(field.const_view(), recon), 1e-8 * (1 + 1e-9));
}

TEST(Sz3, ArchiveDims) {
  auto field = smooth_field(Dims{13, 17}, 4);
  Sz3Compressor sz3;
  Bytes archive = sz3.compress(field.const_view(), 1e-3);
  EXPECT_EQ(Sz3Compressor::archive_dims(archive), Dims({13, 17}));
}

TEST(Sz3, LinearInterpVariant) {
  auto field = smooth_field(Dims{30, 30, 30}, 5, 0.05);
  Sz3Compressor sz3(InterpKind::kLinear);
  Bytes archive = sz3.compress(field.const_view(), 1e-5);
  EXPECT_LE(linf(field.const_view(), sz3.decompress(archive)), 1e-5 * (1 + 1e-9));
}

// ----------------------------------------------------------------- SZ3-M --

// Forged SZ3 archives are typed errors, never an allocation sized by the
// blob: a table alphabet other than 2 * radius, and a radius whose alphabet
// no Huffman coder accepts.
TEST(Sz3, ForgedCodeTableThrowsTyped) {
  const Bytes table = forged_code_table_blob();
  for (const std::uint64_t radius : {std::uint64_t{1} << 15,
                                     std::uint64_t{1} << 40}) {
    ByteWriter w;
    w.u8(1);        // rank
    w.varint(8);    // extent
    w.f64(1e-3);    // eb
    w.u8(0);        // interpolation kind
    w.varint(radius);
    w.varint(0);    // outliers
    w.varint(table.size());
    w.bytes(table);
    EXPECT_THROW(Sz3Compressor().decompress(w.take()), std::runtime_error)
        << "radius " << radius;
  }
}

TEST(Sz3M, RetrievalPicksMatchingStage) {
  auto field = smooth_field(Dims{32, 32, 16}, 6, 0.05);
  MultiFidelityCompressor m(std::make_shared<Sz3Compressor>(), "SZ3-M");
  const double eb = 1e-7;
  Bytes archive = m.compress(field.const_view(), eb);
  for (double target : {1e-6, 1e-4, 1e-2}) {
    auto r = m.retrieve_error(archive, target);
    EXPECT_LE(linf(field.const_view(), r.data), target * (1 + 1e-9)) << target;
    EXPECT_EQ(r.passes, 1);
    EXPECT_LE(r.guaranteed_error, target);
    EXPECT_LT(r.bytes_loaded, archive.size());
  }
}

TEST(Sz3M, ArchiveMuchLargerThanSingleOutput) {
  auto field = smooth_field(Dims{32, 32, 16}, 7, 0.05);
  Sz3Compressor sz3;
  MultiFidelityCompressor m(std::make_shared<Sz3Compressor>(), "SZ3-M");
  const double eb = 1e-7;
  Bytes single = sz3.compress(field.const_view(), eb);
  Bytes multi = m.compress(field.const_view(), eb);
  // Storing nine fidelities costs far more than one (its Fig. 5 weakness).
  EXPECT_GT(multi.size(), single.size() * 3 / 2);
}

TEST(Sz3M, ByteBudgetedRetrieval) {
  auto field = smooth_field(Dims{32, 32, 16}, 8, 0.05);
  MultiFidelityCompressor m(std::make_shared<Sz3Compressor>(), "SZ3-M");
  Bytes archive = m.compress(field.const_view(), 1e-7);
  auto full = m.retrieve_error(archive, 1e-7);
  auto r = m.retrieve_bytes(archive, full.bytes_loaded / 2);
  EXPECT_LE(r.bytes_loaded, full.bytes_loaded / 2);
  // A budgeted retrieval is coarser but valid.
  EXPECT_LE(linf(field.const_view(), r.data), r.guaranteed_error * (1 + 1e-9));
}

TEST(Sz3M, FullDecompressMatchesTightestStage) {
  auto field = smooth_field(Dims{24, 24, 12}, 9, 0.05);
  MultiFidelityCompressor m(std::make_shared<Sz3Compressor>(), "SZ3-M");
  const double eb = 1e-6;
  Bytes archive = m.compress(field.const_view(), eb);
  EXPECT_LE(linf(field.const_view(), m.decompress(archive)), eb * (1 + 1e-9));
}

// --------------------------------------------------------------- residual --

class ResidualBases : public ::testing::TestWithParam<std::string> {};

TEST_P(ResidualBases, ProgressiveLadderHonorsAnchors) {
  auto field = smooth_field(Dims{32, 32, 16}, 10, 0.05);
  auto rc = make_residual(GetParam(), 5);
  const double eb = 1e-6;
  Bytes archive = rc->compress(field.const_view(), eb);
  int prev_passes = 0;
  for (double target : {1e-2, 1e-4, 1e-6}) {
    auto r = rc->retrieve_error(archive, target);
    EXPECT_LE(linf(field.const_view(), r.data), target * (1 + 1e-9))
        << GetParam() << " @ " << target;
    EXPECT_GE(r.passes, prev_passes);  // tighter targets need more passes
    prev_passes = r.passes;
  }
  // The tightest target needs every stage: one decompression per stage.
  EXPECT_EQ(prev_passes, 5);
}

INSTANTIATE_TEST_SUITE_P(Bases, ResidualBases,
                         ::testing::Values("SZ3", "ZFP", "SPERR"),
                         [](const auto& info) { return info.param; });

TEST(Residual, FullDecompressWithinBound) {
  auto field = smooth_field(Dims{24, 24, 24}, 11, 0.05);
  ResidualCompressor rc(std::make_shared<Sz3Compressor>(), "SZ3-R");
  const double eb = 1e-7;
  Bytes archive = rc.compress(field.const_view(), eb);
  EXPECT_LE(linf(field.const_view(), rc.decompress(archive)), eb * (1 + 1e-9));
}

TEST(Residual, ByteBudgetPrefixLoading) {
  auto field = smooth_field(Dims{32, 32, 16}, 12, 0.05);
  ResidualCompressor rc(std::make_shared<Sz3Compressor>(), "SZ3-R");
  Bytes archive = rc.compress(field.const_view(), 1e-7);
  auto full = rc.retrieve_error(archive, 1e-7);
  auto half = rc.retrieve_bytes(archive, full.bytes_loaded / 2);
  EXPECT_LE(half.bytes_loaded, full.bytes_loaded / 2);
  EXPECT_LT(half.passes, full.passes);
  EXPECT_LE(linf(field.const_view(), half.data), half.guaranteed_error * (1 + 1e-9));
}

TEST(Residual, MorePassesThanIpcompForSameTarget) {
  // The structural drawback the paper highlights: residual retrieval at the
  // tightest fidelity executes one decompression per stage.
  auto field = smooth_field(Dims{32, 32, 16}, 13, 0.05);
  const double eb = 1e-7;
  ResidualCompressor rc(std::make_shared<Sz3Compressor>(), "SZ3-R");
  IpcompAdapter ip;
  Bytes ra = rc.compress(field.const_view(), eb);
  Bytes ia = ip.compress(field.const_view(), eb);
  auto r = rc.retrieve_error(ra, eb);
  auto i = ip.retrieve_error(ia, eb);
  EXPECT_EQ(i.passes, 1);
  EXPECT_EQ(r.passes, 9);
}

// ----------------------------------------------------------------- PMGARD --

TEST(Mgard, DecomposeRecomposeExact) {
  auto field = smooth_field(Dims{30, 20, 10}, 14, 0.1);
  auto coeffs = mgard_decompose(field.const_view());
  auto recon = mgard_recompose(field.dims(), coeffs);
  EXPECT_LE(linf(field.const_view(), recon), 1e-12);
}

TEST(Mgard, CoefficientsShrinkTowardFineLevels) {
  // Smooth data: hierarchical-basis coefficients decay as levels refine.
  auto field = smooth_field(Dims{64, 64}, 15, 0.0);
  auto coeffs = mgard_decompose(field.const_view());
  auto max_abs = [](const std::vector<double>& v) {
    double m = 0;
    for (double x : v) m = std::max(m, std::abs(x));
    return m;
  };
  ASSERT_GE(coeffs.size(), 3u);
  EXPECT_LT(max_abs(coeffs[0]), max_abs(coeffs[coeffs.size() - 2]));
}

TEST(Pmgard, NearLosslessFullRetrieval) {
  auto field = smooth_field(Dims{32, 32, 16}, 16, 0.05);
  PmgardCompressor pm;
  Bytes archive = pm.compress(field.const_view(), 1e-6);
  auto recon = pm.decompress(archive);
  const double range = testutil::value_range(field.const_view());
  EXPECT_LE(linf(field.const_view(), recon), range * 1e-7);
}

TEST(Pmgard, ProgressiveErrorTargets) {
  auto field = smooth_field(Dims{32, 32, 16}, 17, 0.05);
  PmgardCompressor pm;
  Bytes archive = pm.compress(field.const_view(), 1e-6);
  std::size_t prev_bytes = 0;
  for (double target : {1e-1, 1e-3, 1e-5}) {
    auto r = pm.retrieve_error(archive, target);
    EXPECT_LE(linf(field.const_view(), r.data), target * (1 + 1e-9)) << target;
    // Tighter targets require at least as much data.
    EXPECT_GE(r.bytes_loaded, prev_bytes);
    prev_bytes = r.bytes_loaded;
  }
}

TEST(Pmgard, ByteBudgetedRetrieval) {
  auto field = smooth_field(Dims{32, 32, 16}, 18, 0.05);
  PmgardCompressor pm;
  Bytes archive = pm.compress(field.const_view(), 1e-6);
  auto half = pm.retrieve_bytes(archive, archive.size() / 2);
  EXPECT_LE(half.bytes_loaded, archive.size() / 2);
  EXPECT_LE(linf(field.const_view(), half.data), half.guaranteed_error * (1 + 1e-9));
}

// ------------------------------------------------------------------ SPERR --

TEST(Sperr, RoundTripWithinBound) {
  auto field = smooth_field(Dims{40, 40, 20}, 19, 0.1);
  SperrCompressor sp;
  for (double eb : {1e-2, 1e-5}) {
    Bytes archive = sp.compress(field.const_view(), eb);
    auto recon = sp.decompress(archive);
    EXPECT_LE(linf(field.const_view(), recon), eb * (1 + 1e-9)) << eb;
  }
}

TEST(Sperr, CompressesSmoothData) {
  auto field = smooth_field(Dims{64, 64, 32}, 20, 0.0);
  SperrCompressor sp;
  Bytes archive = sp.compress(field.const_view(), 1e-4);
  EXPECT_GT(static_cast<double>(field.count() * 8) / archive.size(), 10.0);
}

// --------------------------------------------------------------- adapter --

TEST(Sperr, ForgedCodeTableThrowsTyped) {
  const Bytes table = forged_code_table_blob();
  ByteWriter w;
  w.u8(1);      // rank
  w.varint(8);  // extent
  w.f64(1e-3);  // eb
  w.varint(1);  // wavelet levels
  w.varint(table.size());
  w.bytes(table);
  EXPECT_THROW(SperrCompressor().decompress(w.take()), std::runtime_error);
}

TEST(Lineups, AllCompressorsRoundTrip) {
  auto field = smooth_field(Dims{20, 20, 20}, 21, 0.05);
  const double eb = 1e-4;
  for (auto& c : speed_lineup()) {
    Bytes archive = c->compress(field.const_view(), eb);
    auto recon = c->decompress(archive);
    const double tol = c->name() == "PMGARD"
                           ? testutil::value_range(field.const_view()) * 1e-7
                           : eb * (1 + 1e-9);
    EXPECT_LE(linf(field.const_view(), recon), tol) << c->name();
  }
}

TEST(Lineups, NamesMatchPaper) {
  std::vector<std::string> names;
  for (auto& c : evaluation_lineup()) names.push_back(c->name());
  EXPECT_EQ(names, (std::vector<std::string>{"IPComp", "SZ3-M", "SZ3-R", "ZFP-R",
                                             "PMGARD"}));
}

}  // namespace
}  // namespace ipcomp
