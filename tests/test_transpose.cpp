// Property tests for the word-parallel bitplane transpose engine: every
// kernel tier (scalar / SSE2 / AVX2, as far as the host CPU supports) must be
// bit-identical to the pre-refactor reference loops on adversarial inputs —
// non-multiple-of-64 tails, all-zero and all-ones planes, single-value
// fields, sparse and dense randomness.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "bitplane/predictive.hpp"
#include "bitplane/transpose.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

// ---- pre-refactor reference implementations (PR 4 scalar loops) ----------

PlaneBits extract_plane_ref(std::span<const std::uint32_t> values, unsigned k) {
  PlaneBits out(plane_bytes(values.size()), 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i >> 3] |= static_cast<std::uint8_t>(((values[i] >> k) & 1u) << (i & 7));
  }
  return out;
}

void deposit_plane_ref(std::span<std::uint32_t> values,
                       std::span<const std::uint8_t> plane, unsigned k) {
  for (std::size_t byte = 0; byte < plane.size(); ++byte) {
    std::uint8_t bits = plane[byte];
    const std::size_t base = byte * 8;
    for (unsigned j = 0; j < 8 && base + j < values.size(); ++j) {
      if ((bits >> j) & 1u) values[base + j] |= (std::uint32_t{1} << k);
    }
  }
}

unsigned plane_count_ref(std::span<const std::uint32_t> values) {
  std::uint32_t all = 0;
  for (std::uint32_t v : values) all |= v;
  unsigned n = 0;
  while (all) {
    ++n;
    all >>= 1;
  }
  return n;
}

// ---- input generators ----------------------------------------------------

std::vector<std::uint32_t> random_values(std::size_t n, std::uint64_t seed,
                                         unsigned max_bits = 32) {
  Rng rng(seed);
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::uint32_t>(rng.next_u64());
    if (max_bits < 32) x &= (std::uint32_t{1} << max_bits) - 1;
  }
  return v;
}

/// The interesting sizes: empty, sub-tile, exact tiles, ragged tails.
const std::size_t kSizes[] = {0, 1, 7, 63, 64, 65, 100, 777, 4096, 4113};

std::vector<std::vector<std::uint32_t>> corpus(std::size_t n,
                                               std::uint64_t seed) {
  std::vector<std::vector<std::uint32_t>> inputs;
  inputs.push_back(random_values(n, seed));                 // dense random
  inputs.push_back(random_values(n, seed + 1, 5));          // sparse low bits
  inputs.push_back(std::vector<std::uint32_t>(n, 0));       // all-zero planes
  inputs.push_back(std::vector<std::uint32_t>(n, ~0u));     // all-ones planes
  inputs.push_back(std::vector<std::uint32_t>(n, 0xB4D1u)); // single value
  std::vector<std::uint32_t> nb(n);                         // small negabinary
  Rng rng(seed + 2);
  for (auto& x : nb) {
    x = negabinary_encode(static_cast<std::int64_t>(rng.uniform_u64(201)) - 100);
  }
  inputs.push_back(std::move(nb));
  return inputs;
}

const SimdLevel kTiers[] = {SimdLevel::kScalar, SimdLevel::kSse2,
                            SimdLevel::kAvx2};

class TransposeTiers : public ::testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override {
    if (GetParam() > detected_simd_level()) {
      GTEST_SKIP() << "CPU does not support " << to_string(GetParam());
    }
  }
  const TransposeOps& ops() const { return transpose_ops(GetParam()); }
};

TEST_P(TransposeTiers, ExtractPlaneMatchesReference) {
  for (std::size_t n : kSizes) {
    for (const auto& values : corpus(n, 11)) {
      for (unsigned k : {0u, 1u, 7u, 15u, 16u, 30u, 31u}) {
        EXPECT_EQ(extract_plane(ops(), values, k), extract_plane_ref(values, k))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_P(TransposeTiers, ExtractAllPlanesMatchesReference) {
  for (std::size_t n : kSizes) {
    for (const auto& values : corpus(n, 22)) {
      auto all = extract_all_planes(ops(), values);
      for (unsigned k = 0; k < kPlaneCount; ++k) {
        EXPECT_EQ(all[k], extract_plane_ref(values, k)) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_P(TransposeTiers, DepositPlaneMatchesReference) {
  for (std::size_t n : kSizes) {
    for (const auto& values : corpus(n, 33)) {
      for (unsigned k : {0u, 5u, 16u, 31u}) {
        const auto plane = extract_plane_ref(values, k);
        // Start from a partially filled array (other planes already set).
        std::vector<std::uint32_t> base(n);
        for (std::size_t i = 0; i < n; ++i) {
          base[i] = values[i] & ~(std::uint32_t{1} << k);
        }
        std::vector<std::uint32_t> got = base, want = base;
        deposit_plane(ops(), got, plane, k);
        deposit_plane_ref(want, plane, k);
        EXPECT_EQ(got, want) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_P(TransposeTiers, DepositPlanesMatchesSequentialReference) {
  Rng rng(44);
  for (std::size_t n : kSizes) {
    for (const auto& values : corpus(n, 55)) {
      // A random descending subset of planes, deposited in one batch.
      std::vector<unsigned> ks;
      for (unsigned k = kPlaneCount; k-- > 0;) {
        if (rng.uniform() < 0.4) ks.push_back(k);
      }
      if (ks.empty()) ks.push_back(3);
      std::vector<PlaneBits> bits;
      std::vector<PlaneSpan> spans;
      bits.reserve(ks.size());
      for (unsigned k : ks) bits.push_back(extract_plane_ref(values, k));
      for (std::size_t i = 0; i < ks.size(); ++i) {
        spans.push_back({ks[i], {bits[i].data(), bits[i].size()}});
      }
      std::vector<std::uint32_t> got(n, 0), want(n, 0);
      deposit_planes(ops(), got, spans);
      for (std::size_t i = 0; i < ks.size(); ++i) {
        deposit_plane_ref(want, bits[i], ks[i]);
      }
      EXPECT_EQ(got, want) << "n=" << n;
    }
  }
}

TEST_P(TransposeTiers, EncodeLevelMatchesSeparateSweeps) {
  for (std::size_t n : kSizes) {
    for (const auto& values : corpus(n, 66)) {
      const LevelEncoding enc = encode_level(ops(), values, /*with_loss=*/true);
      EXPECT_EQ(enc.n_planes, plane_count_ref(values)) << "n=" << n;
      const auto want_loss = truncation_loss_table(values);
      for (unsigned d = 0; d <= kPlaneCount; ++d) {
        EXPECT_EQ(enc.loss[d], want_loss[d]) << "n=" << n << " d=" << d;
      }
      ASSERT_EQ(enc.planes.size(), enc.n_planes);
      for (unsigned k = 0; k < enc.n_planes; ++k) {
        EXPECT_EQ(enc.planes[k], extract_plane_ref(values, k))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_P(TransposeTiers, LossTableMatchesBruteForce) {
  const auto values = random_values(3000, 77, 20);
  const LevelEncoding enc = encode_level(ops(), values, /*with_loss=*/true);
  for (unsigned d = 0; d <= kPlaneCount; ++d) {
    std::int64_t expected = 0;
    for (auto v : values) {
      expected = std::max(expected, std::abs(negabinary_low_bits_value(v, d)));
    }
    EXPECT_EQ(enc.loss[d], expected) << "d=" << d;
  }
}

/// Corpus whose top plane is 30 or 31, so plane k + prefix runs past bit 31
/// for the highest planes.
std::vector<std::vector<std::uint32_t>> high_corpus(std::size_t n,
                                                    std::uint64_t seed) {
  std::vector<std::vector<std::uint32_t>> inputs;
  auto top30 = random_values(n, seed, 31);
  if (n) top30[n / 2] |= 1u << 30;
  inputs.push_back(std::move(top30));
  auto top31 = random_values(n, seed + 1, 8);
  if (n) top31[n - 1] = 0x80000000u;
  inputs.push_back(std::move(top31));
  return inputs;
}

/// Fused residual planes == raw planes followed by the per-plane predictive
/// transform, for every prefix width; plane count and loss table do not
/// depend on the prefix.
TEST_P(TransposeTiers, EncodeLevelResidualsMatchPredictiveEncodePlane) {
  for (std::size_t n : kSizes) {
    auto inputs = corpus(n, 99);
    for (auto& v : high_corpus(n, 111)) inputs.push_back(std::move(v));
    for (const auto& values : inputs) {
      const LevelEncoding raw =
          encode_level(ops(), values, /*with_loss=*/true, 0);
      for (unsigned prefix : {0u, 1u, 2u, 3u}) {
        const LevelEncoding enc = encode_level(ops(), values, true, prefix);
        EXPECT_EQ(enc.n_planes, raw.n_planes) << "n=" << n << " p=" << prefix;
        EXPECT_EQ(enc.loss, raw.loss) << "n=" << n << " p=" << prefix;
        ASSERT_EQ(enc.planes.size(), raw.planes.size());
        for (unsigned k = 0; k < raw.n_planes; ++k) {
          EXPECT_EQ(enc.planes[k],
                    predictive_encode_plane(values, raw.planes[k], k, prefix))
              << "n=" << n << " p=" << prefix << " k=" << k;
        }
      }
    }
  }
}

/// Full-range loss table against negabinary_low_bits_value, independent of
/// the chunked reduction: bit 31 set (the int64 depth), the alternating and
/// all-ones patterns, and chunks with different top planes meeting at the
/// 64 Ki chunk boundary (depths above a chunk's top repeat its top entry).
TEST_P(TransposeTiers, LossTableFullRangeMatchesBruteForce) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::vector<std::vector<std::uint32_t>> inputs;
  {
    // Specials interleaved with random full-range values, half with bit 31.
    auto v = random_values(5000, 123);
    const std::uint32_t specials[] = {0xFFFFFFFFu, 0xAAAAAAAAu, 0x55555555u,
                                      0x80000000u, 0xC0000001u};
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i % 7 == 0) v[i] = specials[(i / 7) % 5];
      if (i % 2 == 1) v[i] |= 0x80000000u;
    }
    inputs.push_back(std::move(v));
  }
  {
    // Chunk 0: 12-bit values with 0x55555555 as its last value; chunk 1:
    // only 0x80000000 right after the boundary; ragged chunk 2: all-ones,
    // alternating and random bit-31 values.
    auto v = random_values(2 * kChunk + 77, 321, 12);
    v[kChunk - 1] = 0x55555555u;
    std::fill(v.begin() + kChunk, v.begin() + 2 * kChunk, 0u);
    v[kChunk] = 0x80000000u;
    v[2 * kChunk] = 0xFFFFFFFFu;
    v[2 * kChunk + 1] = 0xAAAAAAAAu;
    for (std::size_t i = 2 * kChunk + 2; i < v.size(); ++i) v[i] |= 0x80000000u;
    inputs.push_back(std::move(v));
  }
  {
    // Single-value chunks of each special, one per chunk.
    const std::uint32_t specials[] = {0xAAAAAAAAu, 0x55555555u, 0xFFFFFFFFu};
    std::vector<std::uint32_t> v(3 * kChunk, 0);
    for (std::size_t c = 0; c < 3; ++c) v[c * kChunk + c] = specials[c];
    inputs.push_back(std::move(v));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& values = inputs[i];
    std::array<std::int64_t, kPlaneCount + 1> expected{};
    for (unsigned d = 0; d <= kPlaneCount; ++d) {
      for (auto v : values) {
        expected[d] =
            std::max(expected[d], std::abs(negabinary_low_bits_value(v, d)));
      }
    }
    const LevelEncoding enc = encode_level(ops(), values, /*with_loss=*/true);
    const auto table = truncation_loss_table(values);
    for (unsigned d = 0; d <= kPlaneCount; ++d) {
      EXPECT_EQ(enc.loss[d], expected[d]) << "input " << i << " d=" << d;
      EXPECT_EQ(table[d], expected[d]) << "input " << i << " d=" << d;
    }
  }
}

/// Batch predictive decode == the pre-refactor per-plane flow (decode one
/// plane against the codes, deposit, decode the next).
TEST_P(TransposeTiers, PredictiveBatchDecodeMatchesPerPlaneFlow) {
  for (std::size_t n : {63u, 64u, 777u, 4113u}) {
    const auto values = random_values(n, 88, 22);
    const unsigned n_planes = plane_count_ref(values);
    if (n_planes < 4) continue;
    for (unsigned prefix : {1u, 2u, 3u}) {
      // Encode side: residual planes exactly as the backends emit them.
      const std::vector<Bytes> encoded =
          encode_level(ops(), values, /*with_loss=*/false, prefix).planes;
      // Resident prefix: the top plane is already deposited; the next three
      // arrive as one MSB-first batch.
      const unsigned top = n_planes - 1;
      std::vector<std::uint32_t> codes_old(n, 0), codes_new(n, 0);
      {
        Bytes p = predictive_encode_plane(codes_old, encoded[top], top, prefix);
        deposit_plane_ref(codes_old, p, top);
        deposit_plane_ref(codes_new, p, top);
      }
      std::vector<unsigned> batch = {top - 1, top - 2, top - 3};
      // Old flow: decode against codes, deposit, repeat.
      for (unsigned k : batch) {
        Bytes p = predictive_encode_plane(codes_old, encoded[k], k, prefix);
        deposit_plane_ref(codes_old, p, k);
      }
      // New flow: batch decode on packed buffers, one multi-plane deposit.
      std::vector<Bytes> work;
      for (unsigned k : batch) work.push_back(encoded[k]);
      std::vector<MutablePlane> mut;
      std::vector<PlaneSpan> spans;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        mut.push_back({batch[i], {work[i].data(), work[i].size()}});
      }
      predictive_decode_planes(codes_new, mut, prefix);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        spans.push_back({batch[i], {work[i].data(), work[i].size()}});
      }
      deposit_planes(ops(), codes_new, spans);
      EXPECT_EQ(codes_new, codes_old) << "n=" << n << " prefix=" << prefix;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, TransposeTiers, ::testing::ValuesIn(kTiers),
                         [](const auto& info) { return to_string(info.param); });

TEST(Transpose, OutOfRangePlaneRejected) {
  std::vector<std::uint32_t> values(10, 0);
  PlaneBits bits(plane_bytes(values.size()), 0xFF);
  const PlaneSpan bad{32, {bits.data(), bits.size()}};
  EXPECT_THROW(deposit_planes(values, {&bad, 1}), std::invalid_argument);
}

TEST(Transpose, PredictiveBatchRequiresMsbFirst) {
  std::vector<std::uint32_t> values(64, 0);
  Bytes a(8, 0), b(8, 0);
  std::vector<MutablePlane> wrong = {{3, {a.data(), a.size()}},
                                     {5, {b.data(), b.size()}}};
  EXPECT_THROW(predictive_decode_planes(values, wrong, 2), std::invalid_argument);
}

TEST(Transpose, SimdLevelParsing) {
  SimdLevel l{};
  EXPECT_TRUE(parse_simd_level("scalar", l));
  EXPECT_EQ(l, SimdLevel::kScalar);
  EXPECT_TRUE(parse_simd_level("sse2", l));
  EXPECT_EQ(l, SimdLevel::kSse2);
  EXPECT_TRUE(parse_simd_level("avx2", l));
  EXPECT_EQ(l, SimdLevel::kAvx2);
  EXPECT_FALSE(parse_simd_level("avx512", l));
  EXPECT_FALSE(parse_simd_level("", l));
  EXPECT_FALSE(parse_simd_level(nullptr, l));
  // The dispatched level never exceeds the hardware, whatever IPCOMP_SIMD says.
  EXPECT_LE(simd_level(), detected_simd_level());
}

}  // namespace
}  // namespace ipcomp
