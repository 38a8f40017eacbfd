#include <gtest/gtest.h>

#include <cstring>

#include "coding/lzh.hpp"
#include "io/bytes.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

void round_trip(const Bytes& input) {
  Bytes enc = lzh_compress({input.data(), input.size()});
  Bytes dec = lzh_decompress({enc.data(), enc.size()});
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
  const Bytes payload = block.take();

  ByteWriter w;
  w.varint(64);  // raw size
  w.u8(0);       // compressed block
  w.varint(payload.size());
  w.bytes(payload);
  return w.take();
}

TEST(Lzh, ForgedOversizedAlphabetThrows) {
  // ~30 bytes declaring a 2e9-symbol alphabet: rejected before allocating.
  const Bytes in = forged_stream(2'000'000'000, kDistAlphabetSize);
  EXPECT_THROW(lzh_decompress({in.data(), in.size()}), std::runtime_error);
}

TEST(Lzh, ForgedLengthSymbolPastRangeThrows) {
  // The last symbol is a length bucket just past the encoder's range, and
  // one far enough past it that unbucketize would shift by 33 bits.
  for (std::size_t last_symbol : {kLitAlphabet, std::size_t{256 + 70}}) {
    const Bytes in = forged_stream(last_symbol + 1, kDistAlphabetSize);
    EXPECT_THROW(lzh_decompress({in.data(), in.size()}), std::runtime_error)
        << "last symbol " << last_symbol;
  }
}

TEST(Lzh, ForgedOversizedDistanceAlphabetThrows) {
  const Bytes in = forged_stream(kLitAlphabet, 2'000'000'000);
  EXPECT_THROW(lzh_decompress({in.data(), in.size()}), std::runtime_error);
}

TEST(Lzh, ForgedStreamWithEncoderAlphabetsPassesAlphabetChecks) {
  // Control for the cases above: with the encoder's alphabet sizes the same
  // forged block gets past the alphabet checks and fails only on its first
  // token, a match (symbol 289) at distance 1 into an empty window.
  const Bytes in = forged_stream(kLitAlphabet, kDistAlphabetSize);
  try {
    (void)lzh_decompress({in.data(), in.size()});
    FAIL() << "distance into an empty window must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lzh: bad distance");
  }
}

}  // namespace
}  // namespace ipcomp
