// End-to-end byte-identity goldens for the bitplane engine and the codec
// orchestration stage.
//
// Archives (header + every segment, including the serialized per-level loss
// tables) and progressively reconstructed fields are hashed and compared to
// constants captured from the pre-refactor scalar pipeline.  Any change to
// quantization, negabinary coding, loss accounting, plane extraction or
// deposit order shows up here as a hash mismatch, so the word-parallel
// engine is pinned to be a pure speedup.
//
// Every case has two archives, one per codec encoder:
//   * try-all — the encoder of earlier releases, which encoded every segment
//     with RLE and LZH and kept the smallest.  The library no longer has it,
//     so these archives are frozen fixtures under tests/fixtures/, written by
//     that encoder.  Each fixture's fnv1a equals its pinned archive hash and
//     its reconstructions hold: archives written by earlier releases decode
//     byte-identically.
//   * probe — the shipped entropy-probed router.  Its archives regenerate from
//     the current writer and have their own archive constants, but their
//     reconstruction hashes must equal the try-all ones at every request:
//     routing is a size/speed decision, never a fidelity one.
//
// Whole-field archives are no longer written either: compress() with
// block_side 0 writes a one-block grid (format v2, or v3 for the wavelet
// backend).  The v1 and whole-field v3 constants pin fixtures written by the
// earlier whole-field writer, and the one-block archive of the same field and
// options carries the same segments byte for byte (only the key packing and
// header differ) and reconstructs identically.
//
// The synthetic fields use only exact integer arithmetic and single-rounded
// double products (no libm transcendentals), so the inputs are bit-identical
// on every platform.  Set IPCOMP_GOLDEN_PRINT=1 to print the current hashes
// instead of asserting (used to regenerate the table when a format change is
// intentional).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>

#include "core/compressor.hpp"
#include "core/progressive_reader.hpp"
#include "io/archive.hpp"
#include "util/ndarray.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t hash_values(const std::vector<T>& v) {
  return fnv1a(v.data(), v.size() * sizeof(T));
}

/// Smooth quadratic + seeded noise, built from exact integer arithmetic and
/// one rounding per element: reproducible bit-for-bit across platforms.
template <typename T>
NdArray<T> golden_field(const Dims& dims, std::uint64_t seed) {
  NdArray<T> out(dims);
  Rng rng(seed);
  const auto strides = dims.strides();
  for (std::size_t i = 0; i < dims.count(); ++i) {
    std::int64_t q = 0;
    std::size_t rem = i;
    for (std::size_t d = 0; d < dims.rank(); ++d) {
      const auto c = static_cast<std::int64_t>(rem / strides[d]);
      rem %= strides[d];
      q += (d == 0) ? c * c : (d == 1 ? 3 * c : -2 * c);
    }
    const double noise =
        static_cast<double>(static_cast<std::int64_t>(rng.next_u64() >> 40)) *
        0x1.0p-24;  // exact: 24-bit integer scaled by a power of two
    out[i] = static_cast<T>(static_cast<double>(q) * 0.01 + noise);
  }
  return out;
}

struct GoldenHashes {
  std::uint64_t archive;
  std::uint64_t coarse;  // after retrieve(Request::error_bound(1e3 * eb))
  std::uint64_t mid;     // after retrieve(Request::error_bound(8 * eb))
  std::uint64_t full;    // after retrieve(Request::full())
};

template <typename T>
std::uint64_t oneshot_full_hash(const Bytes& archive) {
  MemorySource src{Bytes(archive)};
  ProgressiveReader<T> reader(src);
  reader.retrieve(Request::full());
  return hash_values(reader.data());
}

/// Archive hash plus the reconstruction hashes along the fixed ladder.
template <typename T>
GoldenHashes hashes_of(const Bytes& archive) {
  GoldenHashes g{};
  g.archive = fnv1a(archive.data(), archive.size());
  MemorySource src{Bytes(archive)};
  ProgressiveReader<T> reader(src);
  const double eb = reader.compression_eb();
  reader.retrieve(Request::error_bound(1e3 * eb));
  g.coarse = hash_values(reader.data());
  reader.retrieve(Request::error_bound(8 * eb));
  g.mid = hash_values(reader.data());
  reader.retrieve(Request::full());
  g.full = hash_values(reader.data());
  // Refinement rebuilds each block from its codes, so the stepwise result
  // is the one-shot full read bit for bit.
  EXPECT_EQ(g.full, oneshot_full_hash<T>(archive));
  return g;
}

template <typename T>
Bytes golden_archive(const Dims& dims, BackendId be, std::size_t block_side,
                     std::size_t threshold, std::uint64_t seed) {
  auto field = golden_field<T>(dims, seed);
  Options opt;
  opt.backend = be;
  opt.block_side = block_side;
  opt.progressive_threshold = threshold;
  opt.error_bound = 1e-4;
  // The constants pin the pre-v4 container bytes; the v4 integrity wrapper
  // is covered by Golden.IntegrityV4Transparent below.
  opt.integrity = false;
  return compress(field.const_view(), opt);
}

/// A frozen archive under tests/fixtures/.
Bytes fixture(const std::string& name) {
  return read_file(std::string(IPCOMP_FIXTURE_DIR) + "/" + name);
}

std::vector<SegmentId> sorted(std::vector<SegmentId> ids) {
  std::sort(ids.begin(), ids.end(), [](const SegmentId& a, const SegmentId& b) {
    return std::tie(a.kind, a.level, a.plane, a.block) <
           std::tie(b.kind, b.level, b.plane, b.block);
  });
  return ids;
}

/// The one-block archive the current writer makes of a fixture's field
/// holds the fixture's segment set with byte-identical payloads, and
/// reconstructs identically at every step of the ladder.
template <typename T>
void expect_one_block_matches(const char* name, const Bytes& frozen,
                              const Bytes& one_block) {
  MemorySource old_src{Bytes(frozen)};
  MemorySource new_src{Bytes(one_block)};
  EXPECT_NE(old_src.version(), kArchiveV2) << name;
  EXPECT_NE(new_src.version(), kArchiveV1) << name;
  const std::vector<SegmentId> ids = sorted(old_src.segment_ids());
  ASSERT_EQ(ids, sorted(new_src.segment_ids()))
      << name << ": segment set differs";
  for (const SegmentId& id : ids) {
    EXPECT_EQ(old_src.read_segment(id), new_src.read_segment(id))
        << name << ": payload differs";
  }
  const GoldenHashes a = hashes_of<T>(frozen);
  const GoldenHashes b = hashes_of<T>(one_block);
  EXPECT_EQ(a.coarse, b.coarse) << name << ": coarse reconstruction differs";
  EXPECT_EQ(a.mid, b.mid) << name << ": mid reconstruction differs";
  EXPECT_EQ(a.full, b.full) << name << ": full reconstruction differs";
}

bool print_mode() { return std::getenv("IPCOMP_GOLDEN_PRINT") != nullptr; }

void check(const char* name, const GoldenHashes& got, const GoldenHashes& want) {
  if (print_mode()) {
    std::printf("  // %s\n  {0x%016llxull, 0x%016llxull, 0x%016llxull, "
                "0x%016llxull},\n",
                name, static_cast<unsigned long long>(got.archive),
                static_cast<unsigned long long>(got.coarse),
                static_cast<unsigned long long>(got.mid),
                static_cast<unsigned long long>(got.full));
    return;
  }
  EXPECT_EQ(got.archive, want.archive) << name << ": archive bytes changed";
  EXPECT_EQ(got.coarse, want.coarse) << name << ": coarse reconstruction changed";
  EXPECT_EQ(got.mid, want.mid) << name << ": mid reconstruction changed";
  EXPECT_EQ(got.full, want.full) << name << ": full reconstruction changed";
}

// Hashes captured from the pre-refactor (PR 4) scalar bitplane pipeline
// with the try-all codec stage — the bytes every pre-orchestration release
// wrote.  Their fixtures must keep matching them forever.
// Regenerate with IPCOMP_GOLDEN_PRINT=1 only for an intentional format change.
// The interp mid/full hashes follow a refinement, which rebuilds each block
// from its accumulated codes; they equal a one-shot read of the same planes.
constexpr GoldenHashes kInterpV1{0xa13f829c7531238bull, 0x943ee1de74eef67aull,
                                 0x584a2e3d118293a4ull, 0x584a2e3d118293a4ull};
constexpr GoldenHashes kInterpV2{0x4d12bf6580816645ull, 0x9e57fc302de37467ull,
                                 0xd8be4aaf0f35f4c7ull, 0xd8be4aaf0f35f4c7ull};
constexpr GoldenHashes kInterpV2F32{0x9db679dd49fd7763ull, 0x6a4eea016481fbf2ull,
                                    0x6a4eea016481fbf2ull, 0x6a4eea016481fbf2ull};
constexpr GoldenHashes kWaveletV3Whole{0xc08c501fb2ebe313ull,
                                       0x9e78d17f1b6f75b7ull,
                                       0x2de0de32b398dc3aull,
                                       0xa94e768995894462ull};
constexpr GoldenHashes kWaveletV3Block{0x2a677ed253ba40dbull,
                                       0x02a7a1a2499a3390ull,
                                       0x95d956859728dfd5ull,
                                       0x8926ba20565e533aull};

// Archive hashes under the probe router.  The reconstruction
// hashes are NOT new constants: a probe-policy case must reproduce the
// try-all reconstructions exactly (same decode at every request), which
// each test asserts by reusing the legacy constants' decode fields.
constexpr std::uint64_t kInterpV1ProbeArchive = 0x804531af03a6bdcfull;
constexpr std::uint64_t kInterpV2ProbeArchive = 0x8b86671dbf178deeull;
constexpr std::uint64_t kInterpV2F32ProbeArchive = 0xf5fb583307d20e69ull;
constexpr std::uint64_t kWaveletV3WholeProbeArchive = 0x1e6dccaabbcd88d9ull;
constexpr std::uint64_t kWaveletV3BlockProbeArchive = 0xedd47ae5a904bbcbull;

// Archive hashes of the one-block archives compress() writes with
// block_side 0 for the whole-field cases above (v2 interp, v3 wavelet); the
// try-all ones are fixtures now.  Their reconstructions are the whole-field
// ones.
constexpr std::uint64_t kInterpOneBlock = 0xf88d39db94436684ull;
constexpr std::uint64_t kInterpOneBlockProbe = 0xd6acaa1edf6a193cull;
constexpr std::uint64_t kWaveletOneBlock = 0x1ea4cf0c4b658535ull;
constexpr std::uint64_t kWaveletOneBlockProbe = 0x62680979c3d32f73ull;

/// Probe expectation: new archive bytes, identical reconstructions.
constexpr GoldenHashes with_archive(std::uint64_t archive,
                                    const GoldenHashes& legacy) {
  return {archive, legacy.coarse, legacy.mid, legacy.full};
}

struct GoldenCase {
  const char* name;
  Dims dims;
  BackendId backend;
  std::size_t block_side;
  std::size_t threshold;
  std::uint64_t seed;
  const char* fixture;  // tests/fixtures/<fixture>_tryall.ipc
  GoldenHashes legacy;  // try-all fixture: pre-orchestration bytes
  std::uint64_t probe_archive;  // current writer: new bytes, same reconstructions
};

template <typename T>
void run_golden(const GoldenCase& c) {
  check((std::string(c.name) + " [tryall] fixture").c_str(),
        hashes_of<T>(fixture(std::string(c.fixture) + "_tryall.ipc")),
        c.legacy);
  check((std::string(c.name) + " [probe]").c_str(),
        hashes_of<T>(golden_archive<T>(c.dims, c.backend, c.block_side,
                                       c.threshold, c.seed)),
        with_archive(c.probe_archive, c.legacy));
}

// A whole-field case: the frozen fixtures the earlier writer made of the
// field (v1 or whole-field v3), and the one-block archive the current writer
// makes of it with block_side 0 (a fixture too for the try-all encoder).
struct WholeFieldCase {
  const char* name;
  Dims dims;
  BackendId backend;
  std::size_t threshold;
  std::uint64_t seed;
  const char* fixture;  // tests/fixtures/<fixture>_{tryall,probe}.ipc
  const char* one_block_fixture;  // tests/fixtures/<...>_tryall.ipc
  GoldenHashes legacy;  // try-all fixture
  std::uint64_t probe_archive;  // probe fixture, same reconstructions
  std::uint64_t one_block_archive;        // one-block try-all fixture
  std::uint64_t one_block_probe_archive;  // current writer, probe
};

void run_whole_field(const WholeFieldCase& c) {
  for (const bool tryall : {true, false}) {
    const std::string tag = tryall ? "tryall" : "probe";
    const std::string name = std::string(c.name) + " [" + tag + "]";
    const Bytes frozen = fixture(std::string(c.fixture) + "_" + tag + ".ipc");
    const Bytes one_block =
        tryall ? fixture(std::string(c.one_block_fixture) + "_tryall.ipc")
               : golden_archive<double>(c.dims, c.backend, 0, c.threshold,
                                        c.seed);
    check((name + " fixture").c_str(), hashes_of<double>(frozen),
          with_archive(tryall ? c.legacy.archive : c.probe_archive, c.legacy));
    check((name + " one-block").c_str(), hashes_of<double>(one_block),
          with_archive(tryall ? c.one_block_archive : c.one_block_probe_archive,
                       c.legacy));
    expect_one_block_matches<double>(name.c_str(), frozen, one_block);
  }
}

TEST(Golden, InterpV1Whole) {
  run_whole_field({"interp v1 whole-field 40^3 f64", Dims{40, 40, 40},
                   BackendId::kInterp, 4096, 11, "interp_v1_40_seed11",
                   "interp_one_block_40_seed11", kInterpV1,
                   kInterpV1ProbeArchive, kInterpOneBlock,
                   kInterpOneBlockProbe});
}

TEST(Golden, InterpV2Block) {
  run_golden<double>({"interp v2 block16 40^3 f64", Dims{40, 40, 40},
                      BackendId::kInterp, 16, 256, 12,
                      "interp_v2_block16_40_seed12", kInterpV2,
                      kInterpV2ProbeArchive});
}

TEST(Golden, InterpV2BlockF32) {
  run_golden<float>({"interp v2 block16 64x48 f32", Dims{64, 48},
                     BackendId::kInterp, 16, 256, 13,
                     "interp_v2_block16_64x48_f32_seed13", kInterpV2F32,
                     kInterpV2F32ProbeArchive});
}

TEST(Golden, WaveletV3Whole) {
  run_whole_field({"wavelet v3 whole-field 24^3 f64", Dims{24, 24, 24},
                   BackendId::kWavelet, 256, 14, "wavelet_v3_whole_24_seed14",
                   "wavelet_one_block_24_seed14", kWaveletV3Whole,
                   kWaveletV3WholeProbeArchive, kWaveletOneBlock,
                   kWaveletOneBlockProbe});
}

TEST(Golden, WaveletV3Block) {
  run_golden<double>({"wavelet v3 block16 24^3 f64", Dims{24, 24, 24},
                      BackendId::kWavelet, 16, 256, 15,
                      "wavelet_v3_block16_24_seed15", kWaveletV3Block,
                      kWaveletV3BlockProbeArchive});
}

// Region retrieval drives the per-block multi-plane deposit path over a
// subset of the blocks; pin its output too.
TEST(Golden, InterpV2Region) {
  auto field = golden_field<double>(Dims{40, 40, 40}, 16);
  Options opt;
  opt.block_side = 16;
  opt.progressive_threshold = 256;
  opt.error_bound = 1e-4;
  opt.integrity = false;  // constants pin the pre-v4 container bytes
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  const double eb = reader.compression_eb();
  std::array<std::size_t, kMaxRank> lo{}, hi{};
  for (int i = 0; i < 3; ++i) hi[i] = 20;
  reader.execute(reader.plan(Request::error_bound(16 * eb).within(lo, hi)));
  const std::uint64_t h_region = hash_values(reader.data());
  reader.retrieve(Request::full());
  const std::uint64_t h_full = hash_values(reader.data());
  if (print_mode()) {
    std::printf("  // region: {region, full}\n  {0x%016llxull, 0x%016llxull},\n",
                static_cast<unsigned long long>(h_region),
                static_cast<unsigned long long>(h_full));
    return;
  }
  EXPECT_EQ(h_region, 0x8e3910b7264a48eaull) << "region reconstruction changed";
  EXPECT_EQ(h_full, 0x726818e01cd08251ull)
      << "full-after-region reconstruction changed";
  EXPECT_EQ(h_full, oneshot_full_hash<double>(archive));
}

// Planner decisions along a fixed mixed ladder of uniform and region
// requests.  Each step pins one hash of the sorted planned segment ids, the
// planned bytes_new and the bits of the planned and executed guarantees, so a
// planner refactor that moves any plan (what is fetched, what it costs, or
// what it promises) shows up here.  The constants were captured while
// uniform requests still had a planner of their own, and hold unchanged for
// the one planner that treats them as the region over every block.
std::uint64_t plan_step_hash(const RetrievalPlan& p, const RetrievalStats& st) {
  std::vector<std::uint64_t> words;
  for (const SegmentId& id : sorted(p.segments)) {
    words.push_back(std::uint64_t{id.kind} << 48 |
                    std::uint64_t{id.level} << 32 | id.plane);
    words.push_back(id.block);
  }
  words.push_back(p.bytes_new);
  words.push_back(std::bit_cast<std::uint64_t>(p.guaranteed_error));
  words.push_back(std::bit_cast<std::uint64_t>(st.guaranteed_error));
  return fnv1a(words.data(), words.size() * sizeof(std::uint64_t));
}

Bytes ladder_archive(std::size_t side, BackendId backend,
                     std::size_t block_side, std::uint64_t seed) {
  return golden_archive<double>(Dims{side, side, side}, backend, block_side,
                                256, seed);
}

void run_ladder(const char* name, const Bytes& archive, std::size_t side,
                const std::array<std::uint64_t, 6>& steps) {
  const Dims dims{side, side, side};
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  const double eb = reader.compression_eb();
  const std::size_t half = side / 2, far = side * 3 / 4;
  const std::array<std::size_t, kMaxRank> origin{}, mid{half, half, half},
      corner{far, far, far}, end{side, side, side};
  const double bits_per_value = 0.85 * 8.0 *
                                static_cast<double>(archive.size()) /
                                static_cast<double>(dims.count());
  const std::array<Request, 6> ladder = {
      Request::error_bound(1e3 * eb),
      Request::error_bound(1e2 * eb).within(origin, mid),
      Request::bytes(archive.size() / 16),
      Request::bitrate(bits_per_value),
      Request::full().within(corner, end),
      Request::full(),
  };
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const RetrievalPlan p = reader.plan(ladder[i]);
    const RetrievalStats st = reader.execute(p);
    EXPECT_EQ(st.bytes_new, p.bytes_new) << name << " step " << i;
    EXPECT_EQ(st.guaranteed_error, p.guaranteed_error) << name << " step " << i;
    const std::uint64_t h = plan_step_hash(p, st);
    if (print_mode()) {
      std::printf("  // %s step %zu\n  0x%016llxull,\n", name, i,
                  static_cast<unsigned long long>(h));
      continue;
    }
    EXPECT_EQ(h, steps[i]) << name << ": plan at step " << i << " ("
                           << to_string(ladder[i], 3) << ") changed";
  }
}

TEST(Golden, PlanLadder) {
  // The v1 case reads the frozen fixture the earlier whole-field writer made
  // of seed 21 (interp, 40^3, threshold 256, probe); its hash pins the file.
  const Bytes v1 = fixture("interp_v1_40_seed21_probe.ipc");
  ASSERT_EQ(fnv1a(v1.data(), v1.size()), 0x67581e52ad3fe6b2ull);
  const std::array<std::uint64_t, 6> v1_steps = {
      0xb4836a60fdd971a6ull, 0x9322d2d9a3a2b63cull, 0x910bfdfcb6321acdull,
      0xd17bc5caa83e51beull, 0x16146e8514579482ull, 0x435213e33af2f813ull};
  run_ladder("interp v1 whole-field 40^3", v1, 40, v1_steps);
  run_ladder("interp v2 block16 40^3",
             ladder_archive(40, BackendId::kInterp, 16, 22), 40,
             {0xfb79375cb44bb4f5ull, 0xbcb0dad6b99d56b0ull,
              0x2e48997c745455b0ull, 0x69d17ddb2fd9202cull,
              0xaa93f104a5627e2aull, 0xdda672b2a8cb69e1ull});
  run_ladder("wavelet v3 block16 24^3",
             ladder_archive(24, BackendId::kWavelet, 16, 23), 24,
             {0xb4907719eb773f4bull, 0xc4cc5e088d6df774ull,
              0x87a472422daf7cccull, 0x97a6b9b759be9bedull,
              0xfd17994c016f2938ull, 0xf13ee95c3ce8a3edull});
  // The one-block archive of the v1 fixture's field holds the same segments
  // and plans the v1 ladder, except that its first request also pays its
  // three header bytes more (block side and block count).
  const Bytes one_block = ladder_archive(40, BackendId::kInterp, 0, 21);
  expect_one_block_matches<double>("ladder seed 21", v1, one_block);
  std::array<std::uint64_t, 6> one_block_steps = v1_steps;
  one_block_steps[0] = 0x3cfb7c7473892c99ull;
  run_ladder("interp one-block 40^3", one_block, 40, one_block_steps);
}

// The v4 integrity wrapper (the default) must be transparent: identical
// reconstructions at every request, same base version, bigger container (the
// checksum column), pre-v4 payload bytes preserved inside.
TEST(Golden, IntegrityV4Transparent) {
  auto field = golden_field<double>(Dims{40, 40, 40}, 12);
  Options legacy;
  legacy.block_side = 16;
  legacy.progressive_threshold = 256;
  legacy.error_bound = 1e-4;
  legacy.integrity = false;
  Options v4 = legacy;
  v4.integrity = true;
  Bytes legacy_bytes = compress(field.const_view(), legacy);
  Bytes v4_bytes = compress(field.const_view(), v4);
  ASSERT_NE(fnv1a(legacy_bytes.data(), legacy_bytes.size()),
            fnv1a(v4_bytes.data(), v4_bytes.size()));
  ASSERT_GT(v4_bytes.size(), legacy_bytes.size());

  MemorySource legacy_src{Bytes(legacy_bytes)};
  MemorySource v4_src{Bytes(v4_bytes)};
  ASSERT_EQ(legacy_src.version(), v4_src.version());
  ProgressiveReader<double> legacy_reader(legacy_src);
  ProgressiveReader<double> v4_reader(v4_src);
  const double eb = legacy_reader.compression_eb();
  for (const Request& req : {Request::error_bound(1e3 * eb),
                             Request::error_bound(8 * eb), Request::full()}) {
    legacy_reader.retrieve(req);
    v4_reader.retrieve(req);
    EXPECT_EQ(hash_values(legacy_reader.data()), hash_values(v4_reader.data()))
        << "v4 wrapper changed a reconstruction";
  }
}

}  // namespace
}  // namespace ipcomp
