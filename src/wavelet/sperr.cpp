#include "wavelet/sperr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "coding/huffman.hpp"
#include "coding/lzh.hpp"
#include "io/bitstream.hpp"
#include "util/parallel.hpp"
#include "wavelet/cdf97.hpp"

namespace ipcomp {

namespace {

constexpr std::uint32_t kRadius = 1u << 17;  // quantization symbol radius

/// Coefficient quantization step for a target L∞ bound: the inverse
/// transform amplifies coefficient perturbations, so quantize finer and let
/// the outlier pass mop up what still escapes.
double quant_step(double tolerance, unsigned levels, unsigned rank) {
  return tolerance / (1.0 + 0.5 * static_cast<double>(levels * rank));
}

struct QuantizedPayload {
  Bytes blob;  // lzh(huffman table + bitstream + escapes)
};

QuantizedPayload encode_codes(const std::vector<std::int64_t>& codes) {
  std::vector<std::uint64_t> freq(2 * kRadius, 0);
  std::vector<std::int64_t> escapes;
  for (auto c : codes) {
    if (c > -static_cast<std::int64_t>(kRadius) &&
        c < static_cast<std::int64_t>(kRadius)) {
      ++freq[static_cast<std::size_t>(c + kRadius)];
    } else {
      ++freq[0];  // escape symbol
      escapes.push_back(c);
    }
  }
  auto lengths = build_code_lengths(freq);
  HuffmanEncoder enc(lengths);
  ByteWriter w;
  serialize_code_lengths(w, lengths);
  BitWriter bw(codes.size() / 2);
  for (auto c : codes) {
    if (c > -static_cast<std::int64_t>(kRadius) &&
        c < static_cast<std::int64_t>(kRadius)) {
      enc.encode(bw, static_cast<std::uint32_t>(c + kRadius));
    } else {
      enc.encode(bw, 0);
    }
  }
  Bytes bits = bw.finish();
  w.varint(bits.size());
  w.bytes(bits);
  w.varint(escapes.size());
  for (auto e : escapes) w.svarint(e);
  Bytes raw = w.take();
  return {lzh_compress({raw.data(), raw.size()})};
}

std::vector<std::int64_t> decode_codes(std::span<const std::uint8_t> blob,
                                       std::size_t n) {
  Bytes raw = lzh_decompress(blob, lzh_stored_size(blob));
  ByteReader r({raw.data(), raw.size()});
  auto lengths = deserialize_code_lengths(r, 2 * kRadius);
  HuffmanDecoder dec(lengths);
  std::size_t bits_size = r.varint();
  BitReader br(r.bytes(bits_size));
  std::vector<std::int64_t> codes(n);
  std::vector<std::size_t> escape_at;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t s = dec.decode(br);
    if (s == 0) {
      escape_at.push_back(i);
      codes[i] = 0;
    } else {
      codes[i] = static_cast<std::int64_t>(s) - kRadius;
    }
  }
  std::size_t n_escape = r.varint();
  if (n_escape != escape_at.size()) throw std::runtime_error("sperr: escape mismatch");
  for (std::size_t j = 0; j < n_escape; ++j) codes[escape_at[j]] = r.svarint();
  return codes;
}

}  // namespace

Bytes SperrCompressor::compress(NdConstView<double> data, double eb_abs) {
  if (eb_abs <= 0) throw std::invalid_argument("sperr: tolerance must be positive");
  const Dims dims = data.dims();
  const std::size_t n = dims.count();
  const unsigned levels = cdf97_levels(dims);
  const unsigned rank = static_cast<unsigned>(dims.rank());
  const double step = quant_step(eb_abs, levels, rank);

  // Forward transform + uniform quantization of the coefficients.
  std::vector<double> coeffs(data.span().begin(), data.span().end());
  cdf97_forward({coeffs.data(), dims}, levels);
  std::vector<std::int64_t> codes(n);
  parallel_for(0, n, [&](std::size_t i) {
    codes[i] = std::llround(coeffs[i] / step);
  }, /*grain=*/1 << 14);
  QuantizedPayload payload = encode_codes(codes);

  // Self-decode and record exact corrections for every tolerance violation —
  // SPERR's L∞ guarantee mechanism (and its principal speed cost).
  std::vector<double> recon(n);
  parallel_for(0, n, [&](std::size_t i) {
    recon[i] = static_cast<double>(codes[i]) * step;
  }, /*grain=*/1 << 14);
  cdf97_inverse({recon.data(), dims}, levels);
  std::vector<std::pair<std::size_t, std::int64_t>> corrections;
  for (std::size_t i = 0; i < n; ++i) {
    const double err = static_cast<double>(data[i]) - recon[i];
    if (std::abs(err) > eb_abs) {
      corrections.emplace_back(i, std::llround(err / eb_abs));
    }
  }

  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(dims.rank()));
  for (std::size_t i = 0; i < dims.rank(); ++i) w.varint(dims[i]);
  w.f64(eb_abs);
  w.varint(levels);
  w.varint(payload.blob.size());
  w.bytes(payload.blob);
  ByteWriter cw;
  cw.varint(corrections.size());
  std::size_t prev = 0;
  for (auto [idx, q] : corrections) {
    cw.varint(idx - prev);
    cw.svarint(q);
    prev = idx;
  }
  Bytes corr = cw.take();
  Bytes corr_packed = lzh_compress({corr.data(), corr.size()});
  w.varint(corr_packed.size());
  w.bytes(corr_packed);
  return w.take();
}

std::vector<double> SperrCompressor::decompress(const Bytes& archive) {
  ByteReader r({archive.data(), archive.size()});
  std::size_t rank = r.u8();
  std::size_t extents[kMaxRank];
  for (std::size_t i = 0; i < rank; ++i) extents[i] = r.varint();
  const Dims dims = Dims::of_rank(rank, extents);
  const double eb = r.f64();
  const unsigned levels = static_cast<unsigned>(r.varint());
  const double step = quant_step(eb, levels, static_cast<unsigned>(rank));
  const std::size_t n = dims.count();

  std::size_t blob_size = r.varint();
  auto codes = decode_codes(r.bytes(blob_size), n);
  std::vector<double> out(n);
  parallel_for(0, n, [&](std::size_t i) {
    out[i] = static_cast<double>(codes[i]) * step;
  }, /*grain=*/1 << 14);
  cdf97_inverse({out.data(), dims}, levels);

  std::size_t corr_size = r.varint();
  const auto corr_packed = r.bytes(corr_size);
  Bytes corr = lzh_decompress(corr_packed, lzh_stored_size(corr_packed));
  ByteReader cr({corr.data(), corr.size()});
  std::size_t n_corr = cr.varint();
  std::size_t idx = 0;
  for (std::size_t j = 0; j < n_corr; ++j) {
    idx += cr.varint();
    out[idx] += static_cast<double>(cr.svarint()) * eb;
  }
  return out;
}

}  // namespace ipcomp
