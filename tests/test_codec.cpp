// Per-segment codec orchestration: per-codec round-trip properties (the
// routed encoder, hand-tagged RLE and LZH segments of the kind earlier
// encoders wrote, and the bitpack sparse-index codec on its edge shapes),
// probe/routing expectations, and strict decode validation (forged tags,
// truncated payloads, wrong sizes).
#include <gtest/gtest.h>

#include "coding/bitpack.hpp"
#include "coding/codec.hpp"
#include "coding/lzh.hpp"
#include "coding/rle.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

/// A segment as an encoder tagged it: the method byte, then its payload.
Bytes tagged(CodecMethod method, Bytes payload) {
  payload.insert(payload.begin(), static_cast<std::uint8_t>(method));
  return payload;
}

/// Archives written before probe routing hold RLE and LZH segments for
/// inputs the router now sends elsewhere; decode must keep reading them.
Bytes rle_segment(const Bytes& in) {
  return tagged(CodecMethod::kRle, rle_encode({in.data(), in.size()}));
}

Bytes lzh_segment(const Bytes& in) {
  return tagged(CodecMethod::kLzh, lzh_compress({in.data(), in.size()}));
}

void round_trip(const Bytes& input) {
  Bytes enc = codec_compress({input.data(), input.size()});
  // Expansion is bounded at the tag byte.
  EXPECT_LE(enc.size(), input.size() + 1);
  EXPECT_EQ(codec_decompress({enc.data(), enc.size()}, input.size()), input);
  for (const Bytes& seg : {rle_segment(input), lzh_segment(input)}) {
    EXPECT_EQ(codec_decompress({seg.data(), seg.size()}, input.size()), input)
        << "hand-tagged method " << int{seg[0]};
  }
}

CodecMethod method_of(const Bytes& enc) {
  return static_cast<CodecMethod>(enc.at(0));
}

TEST(Codec, EmptyInput) { round_trip({}); }

TEST(Codec, AllZeroUsesEmptyMethod) {
  Bytes in(4096, 0);
  Bytes enc = codec_compress({in.data(), in.size()});
  EXPECT_EQ(enc.size(), 1u);
  EXPECT_EQ(method_of(enc), CodecMethod::kEmpty);
  round_trip(in);
}

TEST(Codec, SparseStaysTiny) {
  Bytes in(8192, 0);
  in[100] = 1;
  in[5000] = 2;
  Bytes enc = codec_compress({in.data(), in.size()});
  EXPECT_LT(enc.size(), 32u);
  EXPECT_LT(rle_segment(in).size(), 32u);
  // Two isolated set bits in 64 Kbit: the probe must route to bitpack.
  EXPECT_EQ(method_of(enc), CodecMethod::kBitpack);
  round_trip(in);
}

TEST(Codec, RandomFallsBackToRaw) {
  Rng rng(77);
  Bytes in(4096);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_u64());
  Bytes enc = codec_compress({in.data(), in.size()});
  EXPECT_LE(enc.size(), in.size() + 1);
  // Uniform random bytes are ~8 bits/byte: routed raw without an encode.
  EXPECT_EQ(method_of(enc), CodecMethod::kRaw);
  round_trip(in);
}

TEST(Codec, RepetitiveCompressesWell) {
  // 6/7 zero bytes: below the RLE routing cutoff, so the probe must fall
  // through to LZH and stay as small as an LZH segment; RLE pays ~2 bytes
  // per nonzero byte here.
  Bytes in;
  for (int i = 0; i < 10000; ++i) in.push_back(static_cast<std::uint8_t>(i % 7 ? 0 : 9));
  Bytes enc = codec_compress({in.data(), in.size()});
  EXPECT_EQ(method_of(enc), CodecMethod::kLzh);
  EXPECT_LT(enc.size(), 600u);
  EXPECT_LT(lzh_segment(in).size(), 600u);
  round_trip(in);
}

TEST(Codec, StructuredDenseRoutesToLzh) {
  // Every byte nonzero (RLE can't win), strongly repetitive (entropy far
  // below the raw cutoff): the probe's dense branch must pick LZH.
  Bytes in;
  for (int i = 0; i < 10000; ++i) in.push_back(static_cast<std::uint8_t>(i % 7 + 1));
  Bytes enc = codec_compress({in.data(), in.size()});
  EXPECT_EQ(method_of(enc), CodecMethod::kLzh);
  EXPECT_LT(enc.size(), 600u);
  round_trip(in);
}

TEST(Codec, MostlyZeroRoutesToRle) {
  // 1/8 of bytes nonzero but clustered 8 set bits each: too dense per byte
  // for bitpack, zero-dominated enough for RLE.
  Bytes in(8192, 0);
  for (std::size_t i = 0; i < in.size(); i += 8) in[i] = 0xff;
  Bytes enc = codec_compress({in.data(), in.size()});
  EXPECT_EQ(method_of(enc), CodecMethod::kRle);
  round_trip(in);
}

TEST(Codec, WrongSizeThrows) {
  // Two set bits, one beyond the forged 50-byte bound, so every method
  // detects the size mismatch: bitpack (where the probe routes this input)
  // and hand-tagged RLE and LZH segments.
  Bytes in(100, 0);
  in[4] = 1;
  in[60] = 1;
  Bytes enc = codec_compress({in.data(), in.size()});
  ASSERT_EQ(method_of(enc), CodecMethod::kBitpack);
  for (const Bytes& seg : {enc, rle_segment(in), lzh_segment(in)}) {
    EXPECT_THROW(codec_decompress({seg.data(), seg.size()}, 50),
                 std::runtime_error)
        << "method " << int{seg[0]};
  }
}

TEST(Codec, EmptyBufferThrows) {
  Bytes empty;
  EXPECT_THROW(codec_decompress({empty.data(), empty.size()}, 4), std::runtime_error);
}

TEST(Codec, ForgedTagThrows) {
  Bytes in(256, 0);
  in[7] = 3;
  Bytes enc = codec_compress({in.data(), in.size()});
  for (unsigned tag = 5; tag < 256; tag += 25) {
    Bytes forged = enc;
    forged[0] = static_cast<std::uint8_t>(tag);
    EXPECT_THROW(codec_decompress({forged.data(), forged.size()}, in.size()),
                 std::runtime_error)
        << "tag " << tag;
  }
}

TEST(Codec, ProbeCountsExactly) {
  Bytes in(1001, 0);
  in[3] = 0x81;    // 2 bits
  in[500] = 1;     // 1 bit
  in[1000] = 0xff; // 8 bits (tail byte past the last full word)
  CodecProbe p = codec_probe({in.data(), in.size()});
  EXPECT_EQ(p.bits, 8008u);
  EXPECT_EQ(p.ones, 11u);
  EXPECT_EQ(p.nonzero_bytes, 3u);
}

/// Structured input that every hand-tagged method encodes compactly.
Bytes structured_input() {
  Bytes in(6000, 0);
  for (std::size_t i = 0; i < in.size(); i += 5) in[i] = static_cast<std::uint8_t>(i % 11 + 1);
  return in;
}

/// Every prefix of `seg` that keeps the tag but loses payload bytes must be
/// refused; none may decode to a full-size buffer.
void expect_every_truncation_throws(const Bytes& seg, std::size_t size) {
  ASSERT_GT(seg.size(), 2u);
  for (std::size_t keep = 1; keep < seg.size(); keep += 1 + keep / 8) {
    EXPECT_THROW(codec_decompress({seg.data(), keep}, size), std::runtime_error)
        << "method " << int{seg[0]} << " kept " << keep << " of " << seg.size();
  }
}

TEST(Codec, TruncatedRleSegmentThrows) {
  const Bytes in = structured_input();
  expect_every_truncation_throws(rle_segment(in), in.size());
}

TEST(Codec, TruncatedLzhSegmentThrows) {
  const Bytes in = structured_input();
  expect_every_truncation_throws(lzh_segment(in), in.size());
}

TEST(Codec, TagIsTheProbeRouteOrRaw) {
  // The encoder runs exactly the routed codec; the only departure is the
  // raw fallback when that codec fails to beat storage.
  Rng rng(124);
  for (int trial = 0; trial < 60; ++trial) {
    Bytes in(rng.uniform_u64(6000));
    const double density = rng.uniform();
    for (auto& b : in) {
      if (rng.uniform() < density) b = static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
    }
    const CodecMethod routed = codec_route(codec_probe({in.data(), in.size()}),
                                           {in.data(), in.size()});
    const Bytes enc = codec_compress({in.data(), in.size()});
    const CodecMethod got = method_of(enc);
    EXPECT_TRUE(got == routed || got == CodecMethod::kRaw)
        << "routed " << to_string(routed) << ", wrote " << to_string(got);
  }
}

TEST(Codec, FuzzRoundTrip) {
  Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    Bytes in(rng.uniform_u64(5000));
    double density = rng.uniform();
    for (auto& b : in) {
      b = rng.uniform() < density ? static_cast<std::uint8_t>(rng.next_u64()) : 0;
    }
    round_trip(in);
  }
}

// ---- bitpack codec -------------------------------------------------------

void bitpack_round_trip(const Bytes& in) {
  Bytes enc = bitpack_encode({in.data(), in.size()});
  Bytes dec = bitpack_decode({enc.data(), enc.size()}, in.size());
  EXPECT_EQ(dec, in);
}

TEST(Bitpack, EmptyInput) { bitpack_round_trip({}); }

TEST(Bitpack, AllZero) { bitpack_round_trip(Bytes(10000, 0)); }

TEST(Bitpack, AllOnes) { bitpack_round_trip(Bytes(3000, 0xff)); }

TEST(Bitpack, SparseCostsAboutOneBytePerBit) {
  Bytes in(1 << 18, 0);  // 4 chunks
  Rng rng(9);
  std::size_t bits = 0;
  for (int i = 0; i < 512; ++i) {
    std::size_t at = rng.uniform_u64(in.size());
    if (in[at] == 0) ++bits;
    in[at] = static_cast<std::uint8_t>(1u << (rng.next_u64() & 7));
  }
  Bytes enc = bitpack_encode({in.data(), in.size()});
  // Gaps average 512 bytes (~12 bits) => 2-byte varints, plus chunk framing.
  EXPECT_LT(enc.size(), bits * 2 + 16);
  bitpack_round_trip(in);
}

TEST(Bitpack, DenseStillRoundTrips) {
  Rng rng(10);
  Bytes in(70000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_u64());
  bitpack_round_trip(in);
}

TEST(Bitpack, TailSizesRoundTrip) {
  // Sizes straddling word and chunk boundaries, with the last byte set so
  // the final in-chunk position is exercised.
  for (std::size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u,
                        (1u << 16) - 1, 1u << 16, (1u << 16) + 1}) {
    Bytes in(n, 0);
    in.front() = 0x80;
    in.back() |= 0x01;
    bitpack_round_trip(in);
  }
}

TEST(Bitpack, TruncatedPayloadThrows) {
  Bytes in(5000, 0);
  for (std::size_t i = 0; i < in.size(); i += 97) in[i] = 1;
  Bytes enc = bitpack_encode({in.data(), in.size()});
  for (std::size_t cut : {enc.size() - 1, enc.size() / 2, std::size_t{1}}) {
    Bytes trunc(enc.begin(), enc.begin() + cut);
    EXPECT_THROW(bitpack_decode({trunc.data(), trunc.size()}, in.size()),
                 std::runtime_error)
        << "cut " << cut;
  }
}

TEST(Bitpack, TrailingBytesThrow) {
  Bytes in(100, 0);
  in[50] = 2;
  Bytes enc = bitpack_encode({in.data(), in.size()});
  enc.push_back(0);
  EXPECT_THROW(bitpack_decode({enc.data(), enc.size()}, in.size()),
               std::runtime_error);
  Bytes empty_with_junk{0x01};
  EXPECT_THROW(bitpack_decode({empty_with_junk.data(), 1}, 0),
               std::runtime_error);
}

TEST(Bitpack, OutOfRangePositionThrows) {
  // A forged chunk whose gap varint names a bit past the chunk end.
  ByteWriter w;
  ByteWriter chunk;
  chunk.varint(80);  // only 10 bytes = 80 bits of output: positions 0..79
  Bytes payload = chunk.take();
  w.varint(payload.size());
  w.bytes(payload);
  Bytes forged = w.take();
  EXPECT_THROW(bitpack_decode({forged.data(), forged.size()}, 10),
               std::runtime_error);
}

TEST(Bitpack, FuzzSparseRoundTrip) {
  Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes in(rng.uniform_u64(200000));
    const std::size_t n_bits = rng.uniform_u64(200);
    for (std::size_t i = 0; i < n_bits && !in.empty(); ++i) {
      in[rng.uniform_u64(in.size())] |=
          static_cast<std::uint8_t>(1u << (rng.next_u64() & 7));
    }
    bitpack_round_trip(in);
  }
}

}  // namespace
}  // namespace ipcomp
