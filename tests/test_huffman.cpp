#include <gtest/gtest.h>

#include <map>

#include "coding/huffman.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

// Kraft inequality must hold for any generated code.
void expect_kraft_valid(const std::vector<std::uint8_t>& lengths) {
  double k = 0.0;
  for (auto l : lengths) {
    if (l) k += std::pow(2.0, -static_cast<double>(l));
  }
  EXPECT_LE(k, 1.0 + 1e-12);
}

void round_trip(const std::vector<std::uint32_t>& symbols, std::size_t alphabet) {
  std::vector<std::uint64_t> freq(alphabet, 0);
  for (auto s : symbols) ++freq[s];
  auto lengths = build_code_lengths(freq);
  expect_kraft_valid(lengths);

  HuffmanEncoder enc(lengths);
  BitWriter bw;
  for (auto s : symbols) enc.encode(bw, s);
  Bytes bits = bw.finish();

  HuffmanDecoder dec(lengths);
  BitReader br({bits.data(), bits.size()});
  for (auto s : symbols) {
    ASSERT_EQ(dec.decode(br), s);
  }
}

TEST(Huffman, TwoSymbols) { round_trip({0, 1, 0, 0, 1, 0}, 2); }

TEST(Huffman, SingleSymbolAlphabet) {
  round_trip(std::vector<std::uint32_t>(100, 5), 16);
}

TEST(Huffman, UniformAlphabet) {
  std::vector<std::uint32_t> syms;
  for (std::uint32_t i = 0; i < 256; ++i) syms.push_back(i);
  round_trip(syms, 256);
}

TEST(Huffman, SkewedDistribution) {
  Rng rng(1);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 20000; ++i) {
    // Geometric-ish: mostly symbol 0.
    std::uint32_t s = 0;
    while (rng.uniform() < 0.5 && s < 40) ++s;
    syms.push_back(s);
  }
  round_trip(syms, 64);
}

TEST(Huffman, LargeAlphabet) {
  Rng rng(2);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 50000; ++i) {
    syms.push_back(static_cast<std::uint32_t>(rng.uniform_u64(60000)));
  }
  round_trip(syms, 65536);
}

TEST(Huffman, LengthLimitHolds) {
  // Fibonacci-like frequencies force deep trees in unlimited Huffman.
  std::vector<std::uint64_t> freq;
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < 50; ++i) {
    freq.push_back(a);
    std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  auto lengths = build_code_lengths(freq, 16);
  for (auto l : lengths) EXPECT_LE(l, 16);
  expect_kraft_valid(lengths);
  // Must still decode correctly.
  HuffmanEncoder enc(lengths);
  HuffmanDecoder dec(lengths);
  BitWriter bw;
  for (std::uint32_t s = 0; s < freq.size(); ++s) enc.encode(bw, s);
  Bytes bits = bw.finish();
  BitReader br({bits.data(), bits.size()});
  for (std::uint32_t s = 0; s < freq.size(); ++s) EXPECT_EQ(dec.decode(br), s);
}

TEST(Huffman, OptimalForPowersOfTwo) {
  // Frequencies 8,4,2,1,1 have exact optimal lengths 1,2,3,4,4.
  std::vector<std::uint64_t> freq = {8, 4, 2, 1, 1};
  auto lengths = build_code_lengths(freq);
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 2);
  EXPECT_EQ(lengths[2], 3);
  EXPECT_EQ(lengths[3], 4);
  EXPECT_EQ(lengths[4], 4);
}

TEST(Huffman, CodeLengthSerialization) {
  std::vector<std::uint64_t> freq(1000, 0);
  freq[3] = 10;
  freq[500] = 5;
  freq[999] = 1;
  auto lengths = build_code_lengths(freq);
  ByteWriter w;
  serialize_code_lengths(w, lengths);
  Bytes b = w.take();
  ByteReader r({b.data(), b.size()});
  auto back = deserialize_code_lengths(r, freq.size());
  EXPECT_EQ(back, lengths);
}

TEST(Huffman, CostBitsMatchesEncodedSize) {
  Rng rng(5);
  std::vector<std::uint32_t> syms;
  std::vector<std::uint64_t> freq(32, 0);
  for (int i = 0; i < 4000; ++i) {
    auto s = static_cast<std::uint32_t>(rng.uniform_u64(32));
    syms.push_back(s);
    ++freq[s];
  }
  auto lengths = build_code_lengths(freq);
  HuffmanEncoder enc(lengths);
  BitWriter bw;
  for (auto s : syms) enc.encode(bw, s);
  EXPECT_EQ(bw.bit_count(), enc.cost_bits(freq));
}

TEST(Huffman, NearEntropyOnSkewedData) {
  // Huffman is within 1 bit/symbol of entropy.
  std::vector<std::uint64_t> freq = {900, 50, 25, 15, 10};
  double total = 1000;
  double entropy = 0;
  for (auto f : freq) {
    double p = f / total;
    entropy -= p * std::log2(p);
  }
  auto lengths = build_code_lengths(freq);
  HuffmanEncoder enc(lengths);
  double avg = static_cast<double>(enc.cost_bits(freq)) / total;
  EXPECT_LT(avg, entropy + 1.0);
}

TEST(Huffman, EmptyAlphabet) {
  std::vector<std::uint64_t> freq(10, 0);
  auto lengths = build_code_lengths(freq);
  for (auto l : lengths) EXPECT_EQ(l, 0);
}

TEST(Huffman, OverSubscribedLengthsRejected) {
  // Three one-bit codes do not fit (Kraft sum 3/2): a table built from them
  // would let symbol 2 shadow symbol 0 and decode silently wrong.
  const std::vector<std::uint8_t> three_one_bit = {1, 1, 1};
  EXPECT_THROW(HuffmanDecoder{three_one_bit}, std::runtime_error);
  // Kraft sum exactly 1 and below it are valid codes.
  EXPECT_NO_THROW(HuffmanDecoder(std::vector<std::uint8_t>{1, 2, 2}));
  EXPECT_NO_THROW(HuffmanDecoder(std::vector<std::uint8_t>{1, 0, 3}));
  // Over-subscribed only among long codes, past the lookup table's width.
  std::vector<std::uint8_t> long_codes(1 << 13, 13);
  EXPECT_NO_THROW(HuffmanDecoder{long_codes});
  long_codes.push_back(13);
  EXPECT_THROW(HuffmanDecoder{long_codes}, std::runtime_error);
}

}  // namespace
}  // namespace ipcomp
