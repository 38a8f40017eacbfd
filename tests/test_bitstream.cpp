#include <gtest/gtest.h>

#include "io/bitstream.hpp"
#include "reference_coding.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

TEST(BitStream, SingleBitsLsbFirst) {
  BitWriter w;
  // first bit written -> bit 0 of byte 0
  w.put_bit(1);
  w.put_bit(0);
  w.put_bit(1);
  Bytes b = w.finish();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 0b101);
}

TEST(BitStream, MultiBitFields) {
  BitWriter w;
  w.put_bits(0x5, 3);
  w.put_bits(0x3F, 6);
  w.put_bits(0x12345, 20);
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  EXPECT_EQ(r.get_bits(3), 0x5u);
  EXPECT_EQ(r.get_bits(6), 0x3Fu);
  EXPECT_EQ(r.get_bits(20), 0x12345u);
}

TEST(BitStream, SixtyFourBitFields) {
  BitWriter w;
  w.put_bits(0xDEADBEEFCAFEBABEull, 64);
  w.put_bits(1, 1);
  w.put_bits(0xFFFFFFFFFFFFFFFFull, 64);
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  EXPECT_EQ(r.get_bits(64), 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(r.get_bits(1), 1u);
  EXPECT_EQ(r.get_bits(64), 0xFFFFFFFFFFFFFFFFull);
}

TEST(BitStream, RandomRoundTrip) {
  Rng rng(42);
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 5000; ++i) {
    unsigned n = 1 + static_cast<unsigned>(rng.uniform_u64(64));
    std::uint64_t v = rng.next_u64();
    if (n < 64) v &= (std::uint64_t{1} << n) - 1;
    fields.emplace_back(v, n);
    w.put_bits(v, n);
  }
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  for (auto [v, n] : fields) {
    EXPECT_EQ(r.get_bits(n), v);
  }
}

TEST(BitStream, UnaryRoundTrip) {
  BitWriter w;
  std::uint64_t vals[] = {0, 1, 2, 7, 31, 32, 33, 100};
  for (auto v : vals) w.put_unary(v);
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  for (auto v : vals) EXPECT_EQ(r.get_unary(), v);
}

TEST(BitStream, PeekDoesNotConsume) {
  BitWriter w;
  w.put_bits(0b1101'0110'1010, 12);
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  EXPECT_EQ(r.peek_bits(4), 0b1010u);
  EXPECT_EQ(r.peek_bits(4), 0b1010u);
  r.skip_bits(4);
  EXPECT_EQ(r.peek_bits(8), 0b1101'0110u);
  EXPECT_EQ(r.get_bits(8), 0b1101'0110u);
}

TEST(BitStream, PeekPastEndReadsZero) {
  BitWriter w;
  w.put_bits(0b1, 1);
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  // One byte exists; peeking further than the stream pads with zeros.
  EXPECT_EQ(r.peek_bits(12), 0b1u);
}

TEST(BitStream, RunawayReadThrows) {
  Bytes b = {0xFF};
  BitReader r({b.data(), b.size()});
  r.get_bits(8);
  // A little zero padding is allowed, then it must throw.
  EXPECT_THROW(
      {
        for (int i = 0; i < 1000; ++i) r.get_bits(8);
      },
      std::runtime_error);
}

TEST(BitStream, BitCountTracksProgress) {
  BitWriter w;
  w.put_bits(0, 13);
  EXPECT_EQ(w.bit_count(), 13u);
  w.put_bits(0, 64);
  EXPECT_EQ(w.bit_count(), 77u);
}

TEST(Bitstream, WordRefillMatchesByteReference) {
  // Every stream length around the 8-byte word refill threshold, random
  // mixes of peeks, skips and reads of 0-56 bits (plus the split 57-64 bit
  // reads), compared value by value with the byte-wise reference, including
  // bits_consumed() and the point where the bounded zero padding throws.
  Rng rng(77);
  for (std::size_t size = 0; size <= 24; ++size) {
    for (int trial = 0; trial < 40; ++trial) {
      Bytes data(size);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
      BitReader fast({data.data(), data.size()});
      reference::ByteBitReader ref({data.data(), data.size()});
      for (int op = 0; op < 64; ++op) {
        const auto kind = rng.uniform_u64(4);
        const auto n = static_cast<unsigned>(
            kind == 3 ? 57 + rng.uniform_u64(8) : rng.uniform_u64(57));
        std::uint64_t got = 0;
        std::uint64_t want = 0;
        bool fast_threw = false;
        bool ref_threw = false;
        try {
          got = kind == 0   ? fast.peek_bits(n)
                : kind == 1 ? (fast.skip_bits(n), 0)
                            : fast.get_bits(n);
        } catch (const std::runtime_error&) {
          fast_threw = true;
        }
        try {
          want = kind == 0   ? ref.peek_bits(n)
                 : kind == 1 ? (ref.skip_bits(n), 0)
                             : ref.get_bits(n);
        } catch (const std::runtime_error&) {
          ref_threw = true;
        }
        ASSERT_EQ(fast_threw, ref_threw)
            << "size " << size << " trial " << trial << " op " << op;
        if (ref_threw) break;
        ASSERT_EQ(got, want) << "size " << size << " trial " << trial << " op " << op
                             << " kind " << kind << " n " << n;
        ASSERT_EQ(fast.bits_consumed(), ref.bits_consumed())
            << "size " << size << " trial " << trial << " op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace ipcomp
