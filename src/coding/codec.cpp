#include "coding/codec.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "coding/bitpack.hpp"
#include "coding/entropy.hpp"
#include "coding/lzh.hpp"
#include "coding/rle.hpp"

namespace ipcomp {

const char* to_string(CodecMethod method) {
  switch (method) {
    case CodecMethod::kEmpty: return "empty";
    case CodecMethod::kRaw: return "raw";
    case CodecMethod::kRle: return "rle";
    case CodecMethod::kLzh: return "lzh";
    case CodecMethod::kBitpack: return "bitpack";
  }
  return "?";
}

CodecProbe codec_probe(std::span<const std::uint8_t> input) {
  CodecProbe p;
  p.bits = input.size() * 8;
  const std::size_t n = input.size();
  std::size_t i = 0;
  // One pass, two counters per 64-bit word: total set bits (popcount) and
  // nonzero bytes (exact OR-reduce of each byte down to its low bit — the
  // classic (w - kLow) & ~w & kHigh zero-byte trick over-counts when borrows
  // propagate, so it is not used here).
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, input.data() + i, 8);
    if (w == 0) continue;
    p.ones += static_cast<std::size_t>(std::popcount(w));
    std::uint64_t t = w | (w >> 4);
    t |= t >> 2;
    t |= t >> 1;
    t &= 0x0101010101010101ull;
    p.nonzero_bytes += static_cast<std::size_t>(std::popcount(t));
  }
  for (; i < n; ++i) {
    if (input[i] == 0) continue;
    p.ones += static_cast<std::size_t>(std::popcount(std::uint32_t{input[i]}));
    ++p.nonzero_bytes;
  }
  return p;
}

CodecMethod codec_route(const CodecProbe& probe,
                        std::span<const std::uint8_t> input) {
  if (probe.ones == 0) return CodecMethod::kEmpty;
  // Sparse and isolated: gap varints cost ~1 byte per set bit, beating both
  // RLE (~2 bytes per nonzero byte) and raw at these densities.
  if (probe.ones * kBitpackMaxDensity <= probe.bits &&
      probe.ones <= probe.nonzero_bytes * kBitpackMaxBitsPerByte) {
    return CodecMethod::kBitpack;
  }
  // Zero bytes dominate: zero-run RLE wins without a second look.
  const std::size_t zero_bytes = input.size() - probe.nonzero_bytes;
  if (zero_bytes * kRleZeroByteDen >= input.size() * kRleZeroByteNum) {
    return CodecMethod::kRle;
  }
  // Dense segment: only now pay for the byte histogram.  Near-random bytes
  // (low sign/mantissa planes after predictive XOR) are stored raw; anything
  // with residual structure goes to LZ77+Huffman.
  if (byte_entropy(input) >= kRawEntropyBits) return CodecMethod::kRaw;
  return input.size() >= kLzhMinBytes ? CodecMethod::kLzh : CodecMethod::kRle;
}

namespace {

Bytes tagged(CodecMethod method, Bytes payload) {
  Bytes out;
  out.reserve(payload.size() + 1);
  out.push_back(static_cast<std::uint8_t>(method));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

}  // namespace

Bytes codec_compress(std::span<const std::uint8_t> input) {
  const CodecProbe probe = codec_probe(input);
  CodecMethod method = codec_route(probe, input);
  Bytes payload;
  switch (method) {
    case CodecMethod::kEmpty:
      return {static_cast<std::uint8_t>(CodecMethod::kEmpty)};
    case CodecMethod::kBitpack:
      payload = bitpack_encode(input);
      break;
    case CodecMethod::kRle:
      payload = rle_encode(input);
      break;
    case CodecMethod::kLzh:
      payload = lzh_compress(input);
      break;
    case CodecMethod::kRaw:
      break;
  }
  // The probe routes on estimates; if the routed encode loses to raw storage
  // the segment is stored instead, bounding expansion at one tag byte.
  if (method == CodecMethod::kRaw || payload.size() >= input.size()) {
    payload.assign(input.begin(), input.end());
    method = CodecMethod::kRaw;
  }
  return tagged(method, std::move(payload));
}

Bytes codec_decompress(std::span<const std::uint8_t> input, std::size_t output_size) {
  if (input.empty()) throw std::runtime_error("codec: empty input");
  auto method = static_cast<CodecMethod>(input[0]);
  auto payload = input.subspan(1);
  switch (method) {
    case CodecMethod::kEmpty:
      return Bytes(output_size, 0);
    case CodecMethod::kRaw:
      if (payload.size() != output_size) throw std::runtime_error("codec: raw size mismatch");
      return Bytes(payload.begin(), payload.end());
    case CodecMethod::kRle:
      return rle_decode(payload, output_size);
    case CodecMethod::kLzh: {
      Bytes out = lzh_decompress(payload);
      if (out.size() != output_size) throw std::runtime_error("codec: lzh size mismatch");
      return out;
    }
    case CodecMethod::kBitpack:
      return bitpack_decode(payload, output_size);
  }
  throw std::runtime_error("codec: unknown method");
}

}  // namespace ipcomp
