#include "core/header.hpp"

#include <stdexcept>

#include "core/blocks.hpp"

namespace ipcomp {

namespace {

/// First byte of a v2+ header blob.  v1 blobs start with the dtype byte
/// (0 or 1), so any first byte >= 2 unambiguously marks a tagged version.
constexpr std::uint8_t kHeaderV2Tag = 2;
/// v3 blobs additionally carry a backend id and an opaque metadata blob.
constexpr std::uint8_t kHeaderV3Tag = 3;

void write_levels(ByteWriter& w, const std::vector<LevelHeader>& levels) {
  w.varint(levels.size());
  for (const LevelHeader& l : levels) {
    w.varint(l.count);
    w.u8(l.progressive ? 1 : 0);
    w.varint(l.n_planes);
    if (l.loss.size() != l.n_planes + 1) {
      throw std::logic_error("header: loss table size mismatch");
    }
    for (auto v : l.loss) w.varint(v);
    w.varint(l.outlier_count);
  }
}

std::vector<LevelHeader> read_levels(ByteReader& r) {
  std::size_t n_levels = r.varint();
  // Each level encodes to at least 5 bytes; a count beyond that is a forged
  // stream and must not drive the resize() allocation below.
  if (n_levels > r.remaining() / 5) throw std::runtime_error("header: bad level count");
  std::vector<LevelHeader> levels(n_levels);
  for (LevelHeader& l : levels) {
    l.count = r.varint();
    l.progressive = r.u8() != 0;
    l.n_planes = static_cast<std::uint32_t>(r.varint());
    if (l.n_planes > 32) throw std::runtime_error("header: bad plane count");
    l.loss.resize(l.n_planes + 1);
    for (auto& v : l.loss) v = r.varint();
    l.outlier_count = r.varint();
  }
  return levels;
}

}  // namespace

std::uint8_t Header::write_format() const {
  return backend == BackendId::kInterp ? kHeaderV2Tag : kHeaderV3Tag;
}

Bytes Header::serialize() const {
  ByteWriter w;
  const std::uint8_t tag = write_format();
  w.u8(tag);
  if (tag == kHeaderV3Tag) {
    w.u8(static_cast<std::uint8_t>(backend));
    w.varint(backend_meta.size());
    w.bytes(backend_meta);
  }
  w.u8(static_cast<std::uint8_t>(dtype));
  w.u8(static_cast<std::uint8_t>(dims.rank()));
  for (std::size_t i = 0; i < dims.rank(); ++i) w.varint(dims[i]);
  w.f64(eb);
  w.u8(static_cast<std::uint8_t>(interp));
  w.u8(static_cast<std::uint8_t>(prefix_bits));
  w.f64(data_min);
  w.f64(data_max);
  w.varint(block_side);
  w.varint(block_levels.size());
  for (const auto& bl : block_levels) write_levels(w, bl);
  return w.take();
}

Header Header::parse(const Bytes& raw) {
  ByteReader r({raw.data(), raw.size()});
  Header h;
  std::uint8_t first = r.u8();
  if (first >= kHeaderV2Tag) {
    if (first > kHeaderV3Tag) throw std::runtime_error("header: bad format tag");
    h.format = first;
    if (h.format == kHeaderV3Tag) {
      const std::uint8_t backend = r.u8();
      if (!backend_id_known(backend)) {
        throw std::runtime_error("header: unknown backend id");
      }
      h.backend = static_cast<BackendId>(backend);
      std::size_t meta_len = r.varint();
      if (meta_len > r.remaining()) {
        throw std::runtime_error("header: bad backend metadata length");
      }
      auto meta = r.bytes(meta_len);
      h.backend_meta.assign(meta.begin(), meta.end());
    }
    first = r.u8();
  }
  h.dtype = static_cast<DataType>(first);
  if (h.dtype != DataType::kFloat32 && h.dtype != DataType::kFloat64) {
    throw std::runtime_error("header: bad data type");
  }
  std::size_t rank = r.u8();
  std::size_t extents[kMaxRank];
  if (rank == 0 || rank > kMaxRank) throw std::runtime_error("header: bad rank");
  for (std::size_t i = 0; i < rank; ++i) extents[i] = r.varint();
  h.dims = Dims::of_rank(rank, extents);
  h.eb = r.f64();
  const std::uint8_t interp = r.u8();
  if (interp > static_cast<std::uint8_t>(InterpKind::kCubic)) {
    throw std::runtime_error("header: bad interpolation kind");
  }
  h.interp = static_cast<InterpKind>(interp);
  h.prefix_bits = r.u8();
  h.data_min = r.f64();
  h.data_max = r.f64();
  if (h.format != 1) h.block_side = r.varint();
  if (h.block_side == 0) {
    // v1 and whole-field v3 headers (read only): one block spanning the field.
    if (h.format == kHeaderV2Tag) {
      throw std::runtime_error("header: bad block side");
    }
    h.block_levels.push_back(read_levels(r));
    return h;
  }
  std::size_t n_blocks = r.varint();
  // The block table must match the geometry derived from dims + block_side
  // (BlockGrid::analyze throws for block_side == 1); that also rejects forged
  // counts before they drive the resize() below.
  BlockGrid grid = BlockGrid::analyze(h.dims, h.block_side);
  if (n_blocks != grid.n_blocks) {
    throw std::runtime_error("header: block table does not match geometry");
  }
  if (n_blocks > r.remaining()) throw std::runtime_error("header: bad block count");
  h.block_levels.resize(n_blocks);
  for (auto& bl : h.block_levels) bl = read_levels(r);
  return h;
}

}  // namespace ipcomp
