#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "bitplane/predictive.hpp"
#include "coding/codec.hpp"
#include "coding/lzh.hpp"
#include "io/bytes.hpp"
#include "reference_coding.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

void round_trip(const Bytes& input) {
  Bytes enc = lzh_compress({input.data(), input.size()});
  Bytes dec = lzh_decompress({enc.data(), enc.size()}, input.size());
  ASSERT_EQ(dec.size(), input.size());
  EXPECT_EQ(dec, input);
}

TEST(Lzh, Empty) { round_trip({}); }

TEST(Lzh, Tiny) { round_trip({1, 2, 3}); }

TEST(Lzh, SingleByte) { round_trip({42}); }

TEST(Lzh, RepeatedByteCompresses) {
  Bytes in(100000, 7);
  Bytes enc = lzh_compress({in.data(), in.size()});
  EXPECT_LT(enc.size(), in.size() / 100);
  round_trip(in);
}

TEST(Lzh, PeriodicPattern) {
  Bytes in;
  for (int i = 0; i < 50000; ++i) in.push_back(static_cast<std::uint8_t>(i % 17));
  Bytes enc = lzh_compress({in.data(), in.size()});
  EXPECT_LT(enc.size(), in.size() / 10);
  round_trip(in);
}

TEST(Lzh, OverlappingMatch) {
  // "abcabcabc..." forces overlapping copies (dist < len).
  Bytes in;
  const char* pat = "abc";
  for (int i = 0; i < 10000; ++i) in.push_back(static_cast<std::uint8_t>(pat[i % 3]));
  round_trip(in);
}

TEST(Lzh, IncompressibleRandomStoredRaw) {
  Rng rng(9);
  Bytes in(20000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_u64());
  Bytes enc = lzh_compress({in.data(), in.size()});
  // Raw fallback bounds expansion to block framing overhead.
  EXPECT_LT(enc.size(), in.size() + 64);
  round_trip(in);
}

TEST(Lzh, MultiBlockInput) {
  // > 256 KiB to exercise the block splitter.
  Rng rng(10);
  Bytes in(600000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>((i / 100) % 251);
  }
  round_trip(in);
}

TEST(Lzh, TextLikeData) {
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "the quick brown fox jumps over the lazy dog ";
  }
  Bytes in(text.begin(), text.end());
  Bytes enc = lzh_compress({in.data(), in.size()});
  EXPECT_LT(enc.size(), in.size() / 20);
  round_trip(in);
}

TEST(Lzh, RandomStructuredFuzz) {
  Rng rng(12);
  for (int trial = 0; trial < 15; ++trial) {
    Bytes in(1 + rng.uniform_u64(30000));
    std::uint8_t v = 0;
    for (auto& b : in) {
      if (rng.uniform() < 0.05) v = static_cast<std::uint8_t>(rng.next_u64());
      b = v;
    }
    round_trip(in);
  }
}

TEST(Lzh, MatchAtBufferEnd) {
  Bytes in;
  for (int i = 0; i < 100; ++i) in.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0; i < 100; ++i) in.push_back(static_cast<std::uint8_t>(i));
  round_trip(in);  // match runs exactly to the end
}

// Alphabet sizes the encoder always writes: 256 literals plus 34 length
// buckets, and 38 distance buckets (256 KiB blocks).
constexpr std::size_t kLitAlphabet = 290;
constexpr std::size_t kDistAlphabetSize = 38;

/// Serialized code lengths (serialize_code_lengths layout) over `alphabet`
/// symbols where only symbols 0 and alphabet-1 have codes, one bit each:
/// bit 0 decodes to symbol 0, bit 1 to the last symbol.
void put_two_symbol_code(ByteWriter& w, std::size_t alphabet) {
  w.varint(alphabet);
  w.varint(2);
  w.varint(0);
  w.u8(1);
  w.varint(alphabet - 1);
  w.u8(1);
}

/// A 64-byte one-block LZH stream around a forged block payload.
Bytes one_block_stream(const Bytes& payload) {
  ByteWriter w;
  w.varint(64);  // raw size
  w.u8(0);       // compressed block
  w.varint(payload.size());
  w.bytes(payload);
  return w.take();
}

/// A one-block LZH stream with forged alphabets.  The bitstream is a single
/// 1 bit (the last literal/length symbol) followed by zeros (its extra bits,
/// then distance symbol 0).
Bytes forged_stream(std::size_t lit_alphabet, std::size_t dist_alphabet) {
  ByteWriter block;
  put_two_symbol_code(block, lit_alphabet);
  put_two_symbol_code(block, dist_alphabet);
  const Bytes bits = {0x01, 0, 0, 0, 0, 0, 0, 0};
  block.varint(bits.size());
  block.bytes(bits);
  return one_block_stream(block.take());
}

TEST(Lzh, ForgedOversizedAlphabetThrows) {
  // ~30 bytes declaring a 2e9-symbol alphabet: rejected before allocating.
  const Bytes in = forged_stream(2'000'000'000, kDistAlphabetSize);
  EXPECT_THROW(lzh_decompress({in.data(), in.size()}, 64), std::runtime_error);
}

TEST(Lzh, ForgedLengthSymbolPastRangeThrows) {
  // The last symbol is a length bucket just past the encoder's range, and
  // one far enough past it to index well beyond the length-base table.
  for (std::size_t last_symbol : {kLitAlphabet, std::size_t{256 + 70}}) {
    const Bytes in = forged_stream(last_symbol + 1, kDistAlphabetSize);
    EXPECT_THROW(lzh_decompress({in.data(), in.size()}, 64), std::runtime_error)
        << "last symbol " << last_symbol;
  }
}

TEST(Lzh, ForgedOversizedDistanceAlphabetThrows) {
  const Bytes in = forged_stream(kLitAlphabet, 2'000'000'000);
  EXPECT_THROW(lzh_decompress({in.data(), in.size()}, 64), std::runtime_error);
}

TEST(Lzh, ForgedStreamWithEncoderAlphabetsPassesAlphabetChecks) {
  // Control for the cases above: with the encoder's alphabet sizes the same
  // forged block gets past the alphabet checks and fails only on its first
  // token, a match (symbol 289) at distance 1 into an empty window.
  const Bytes in = forged_stream(kLitAlphabet, kDistAlphabetSize);
  try {
    (void)lzh_decompress({in.data(), in.size()}, 64);
    FAIL() << "distance into an empty window must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lzh: bad distance");
  }
}

TEST(Lzh, ForgedOverSubscribedLengthsThrow) {
  // Literals 0 and 1 and length symbol 289 all claim a one-bit code.  An
  // all-ones bitstream then reads as 64 literal 1s when the last code simply
  // overwrites the first in the lookup table; it must be rejected instead.
  ByteWriter block;
  block.varint(kLitAlphabet);
  block.varint(3);
  for (std::size_t gap : {std::size_t{0}, std::size_t{1}, kLitAlphabet - 2}) {
    block.varint(gap);
    block.u8(1);
  }
  put_two_symbol_code(block, kDistAlphabetSize);
  const Bytes bits(8, 0xFF);
  block.varint(bits.size());
  block.bytes(bits);
  const Bytes in = one_block_stream(block.take());
  EXPECT_THROW(lzh_decompress({in.data(), in.size()}, 64), std::runtime_error);
}

TEST(Lzh, ForgedTotalRejectedBeforeAllocation) {
  // Tag 3 (LZH) and a stored total of 2^62: the caller expects 64 bytes, so
  // the segment is rejected before anything is reserved for the total.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(CodecMethod::kLzh));
  w.varint(std::uint64_t{1} << 62);
  const Bytes seg = w.take();
  EXPECT_THROW(codec_decompress({seg.data(), seg.size()}, 64), std::runtime_error);
  // A caller that does not know the size learns it only when the input can
  // frame that many blocks.
  const auto stream = std::span<const std::uint8_t>(seg).subspan(1);
  EXPECT_THROW((void)lzh_stored_size(stream), std::runtime_error);
  const Bytes ok = lzh_compress(stream);
  EXPECT_EQ(lzh_stored_size({ok.data(), ok.size()}), stream.size());
}

/// Decodes `enc` with the shipped and the reference decoder and expects both
/// to reproduce `input`.
void expect_matches_reference(const Bytes& input, const char* what) {
  const Bytes enc = lzh_compress({input.data(), input.size()});
  const Bytes want = reference::lzh_decompress({enc.data(), enc.size()});
  ASSERT_EQ(want, input) << what;
  EXPECT_EQ(lzh_decompress({enc.data(), enc.size()}, input.size()), want) << what;
}

/// Plane segments of the kind the archive writer hands the codec: the fused
/// residual planes of negabinary codes with geometric magnitude classes.
std::vector<Bytes> plane_segments(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> codes(n);
  for (auto& c : codes) {
    const auto cls = std::min<unsigned>(
        14, static_cast<unsigned>(std::countr_zero(rng.next_u64() | (1ull << 12))));
    const std::uint64_t span = 1ull << (2 * cls + 2);
    c = negabinary_encode(static_cast<std::int64_t>(rng.uniform_u64(span)) -
                          static_cast<std::int64_t>(span / 2));
  }
  return encode_level(codes, /*with_loss=*/false, kDefaultPrefixBits).planes;
}

TEST(Lzh, DecodeMatchesReferenceDecoder) {
  Rng rng(2024);
  // Random token mixes: literal runs, repeats of earlier text at short and
  // long distances, and byte runs.
  for (int trial = 0; trial < 20; ++trial) {
    Bytes in;
    const std::size_t target = 1 + rng.uniform_u64(20000);
    while (in.size() < target) {
      const auto kind = rng.uniform_u64(3);
      const std::size_t len = 1 + rng.uniform_u64(kind == 0 ? 24 : 300);
      if (kind == 0 || in.empty()) {
        for (std::size_t i = 0; i < len; ++i) in.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      } else if (kind == 1) {
        const std::size_t dist = 1 + rng.uniform_u64(in.size());
        for (std::size_t i = 0; i < len; ++i) in.push_back(in[in.size() - dist]);
      } else {
        in.insert(in.end(), len, static_cast<std::uint8_t>(rng.next_u64()));
      }
    }
    expect_matches_reference(in, "token mix");
  }
  // Overlapping matches: a random period of 1-16 bytes repeated far past
  // its own length, so every match reads bytes it is still writing.
  for (std::size_t period = 1; period <= 16; ++period) {
    Bytes in;
    for (std::size_t i = 0; i < period; ++i) in.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    for (std::size_t i = period; i < 5000; ++i) in.push_back(in[i - period]);
    expect_matches_reference(in, "overlap");
  }
  // Matches that end on the 256 KiB block edge, then a raw (random) block,
  // then a short compressible tail block.
  {
    constexpr std::size_t kBlock = std::size_t{1} << 18;
    Bytes in(kBlock - 4000);
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.uniform_u64(4));
    for (std::size_t i = 0; i < 4000; ++i) in.push_back(in[i]);
    for (std::size_t i = 0; i < kBlock; ++i) in.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    for (std::size_t i = 0; i < 3000; ++i) in.push_back(static_cast<std::uint8_t>(i % 7));
    expect_matches_reference(in, "block edges");
  }
  // Every truncation of real plane segments throws or decodes as the
  // reference does.
  std::size_t compressed_planes = 0;
  for (const Bytes& plane : plane_segments(1 << 13, 31)) {
    const Bytes enc = lzh_compress({plane.data(), plane.size()});
    compressed_planes += enc.size() < plane.size();
    ASSERT_EQ(reference::lzh_decompress({enc.data(), enc.size()}), plane);
    ASSERT_EQ(lzh_decompress({enc.data(), enc.size()}, plane.size()), plane);
    for (std::size_t keep = 0; keep < enc.size(); ++keep) {
      Bytes got;
      try {
        got = lzh_decompress({enc.data(), keep}, plane.size());
      } catch (const std::runtime_error&) {
        continue;
      }
      EXPECT_EQ(got, reference::lzh_decompress({enc.data(), keep})) << "kept " << keep;
    }
  }
  EXPECT_GE(compressed_planes, 4u);
}

}  // namespace
}  // namespace ipcomp
