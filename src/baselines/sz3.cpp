#include "baselines/sz3.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "coding/huffman.hpp"
#include "coding/lzh.hpp"
#include "interp/sweep.hpp"
#include "io/bitstream.hpp"
#include "quant/quantizer.hpp"
#include "util/sync.hpp"

namespace ipcomp {

namespace {

/// Global slot offsets in sweep order (level L-1 first).
std::vector<std::size_t> level_offsets(const LevelStructure& ls) {
  std::vector<std::size_t> off(ls.num_levels, 0);
  std::size_t acc = 0;
  for (unsigned li = ls.num_levels; li-- > 0;) {
    off[li] = acc;
    acc += ls.level_count[li];
  }
  return off;
}

}  // namespace

Bytes Sz3Compressor::compress(NdConstView<double> data, double eb_abs) {
  if (eb_abs <= 0) throw std::invalid_argument("sz3: error bound must be positive");
  const Dims dims = data.dims();
  const LevelStructure ls = LevelStructure::analyze(dims);
  const auto offsets = level_offsets(ls);
  const LinearQuantizer quant(eb_abs);
  const std::int64_t radius = radius_;

  std::vector<std::uint32_t> symbols(dims.count(), 0);
  std::vector<std::pair<std::size_t, double>> outliers;
  Mutex outlier_mutex;

  std::vector<double> xhat(data.span().begin(), data.span().end());
  const double* original = data.data();
  interpolation_sweep(xhat.data(), ls, interp_,
                      [&](unsigned li, std::size_t slot, std::size_t idx,
                          double pred) -> double {
                        const std::size_t g = offsets[li] + slot;
                        std::int64_t code;
                        double recon;
                        if (quant.quantize(original[idx], pred, code, recon) &&
                            code > -radius && code < radius) {
                          symbols[g] = static_cast<std::uint32_t>(code + radius);
                          return recon;
                        }
                        LockGuard lock(outlier_mutex);
                        outliers.emplace_back(g, original[idx]);
                        symbols[g] = 0;  // reserved outlier symbol
                        return original[idx];
                      });
  std::sort(outliers.begin(), outliers.end());

  // Huffman over the symbol stream, then LZ77 over table + bitstream
  // (mirrors SZ3's Huffman + zstd pipeline).
  std::vector<std::uint64_t> freq(2 * radius_, 0);
  for (auto s : symbols) ++freq[s];
  auto lengths = build_code_lengths(freq);
  HuffmanEncoder enc(lengths);
  ByteWriter hw;
  serialize_code_lengths(hw, lengths);
  BitWriter bw(dims.count() / 2);
  for (auto s : symbols) enc.encode(bw, s);
  Bytes bits = bw.finish();
  hw.varint(bits.size());
  hw.bytes(bits);
  Bytes huff_blob = hw.take();
  Bytes packed = lzh_compress({huff_blob.data(), huff_blob.size()});

  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(dims.rank()));
  for (std::size_t i = 0; i < dims.rank(); ++i) w.varint(dims[i]);
  w.f64(eb_abs);
  w.u8(static_cast<std::uint8_t>(interp_));
  w.varint(radius_);
  w.varint(outliers.size());
  std::size_t prev = 0;
  for (auto [g, value] : outliers) {
    w.varint(g - prev);
    w.f64(value);
    prev = g;
  }
  w.varint(packed.size());
  w.bytes(packed);
  return w.take();
}

std::vector<double> Sz3Compressor::decompress(const Bytes& archive) {
  ByteReader r({archive.data(), archive.size()});
  std::size_t rank = r.u8();
  std::size_t extents[kMaxRank];
  for (std::size_t i = 0; i < rank; ++i) extents[i] = r.varint();
  const Dims dims = Dims::of_rank(rank, extents);
  const double eb = r.f64();
  const auto interp = static_cast<InterpKind>(r.u8());
  const std::uint64_t radius = r.varint();
  // The symbol alphabet is 2 * radius; compress() could only have coded one
  // that build_code_lengths accepts.
  if (radius == 0 || radius > (std::uint64_t{1} << (kHuffmanMaxLen - 1))) {
    throw std::runtime_error("sz3: quantization radius out of range");
  }

  std::size_t n_outliers = r.varint();
  std::map<std::size_t, double> outliers;
  std::size_t g = 0;
  for (std::size_t i = 0; i < n_outliers; ++i) {
    g += r.varint();
    outliers[g] = r.f64();
  }

  std::size_t packed_size = r.varint();
  const auto packed = r.bytes(packed_size);
  Bytes huff_blob = lzh_decompress(packed, lzh_stored_size(packed));
  ByteReader hr({huff_blob.data(), huff_blob.size()});
  auto lengths = deserialize_code_lengths(hr, 2 * radius);
  HuffmanDecoder dec(lengths);
  std::size_t bits_size = hr.varint();
  BitReader br(hr.bytes(bits_size));
  std::vector<std::uint32_t> symbols(dims.count());
  for (auto& s : symbols) s = dec.decode(br);

  const LevelStructure ls = LevelStructure::analyze(dims);
  const auto offsets = level_offsets(ls);
  const LinearQuantizer quant(eb);
  std::vector<double> out(dims.count(), 0.0);
  interpolation_sweep(out.data(), ls, interp,
                      [&](unsigned li, std::size_t slot, std::size_t /*idx*/,
                          double pred) -> double {
                        const std::size_t gs = offsets[li] + slot;
                        const std::uint32_t s = symbols[gs];
                        if (s == 0) return outliers.at(gs);
                        return quant.dequantize(
                            pred, static_cast<std::int64_t>(s) -
                                      static_cast<std::int64_t>(radius));
                      });
  return out;
}

Dims Sz3Compressor::archive_dims(const Bytes& archive) {
  ByteReader r({archive.data(), archive.size()});
  std::size_t rank = r.u8();
  std::size_t extents[kMaxRank];
  for (std::size_t i = 0; i < rank; ++i) extents[i] = r.varint();
  return Dims::of_rank(rank, extents);
}

}  // namespace ipcomp
