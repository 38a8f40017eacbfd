#include "core/backend.hpp"

#include <stdexcept>

#include "bitplane/bitplane.hpp"
#include "coding/codec.hpp"
#include "core/interp_backend.hpp"
#include "util/parallel.hpp"
#include "wavelet/wavelet_backend.hpp"

namespace ipcomp {

const char* to_string(BackendId id) {
  switch (id) {
    case BackendId::kInterp: return "interp";
    case BackendId::kWavelet: return "wavelet";
  }
  return "?";
}

namespace {

/// The registry: one stateless singleton per backend, indexed by id.
///
/// Thread contract: internally-synchronized.  The singletons are const,
/// hold no mutable state, and are constructed under C++ magic-static
/// initialization, so concurrent first-touch from any number of threads —
/// including N compressions racing through backend_for() on process start —
/// is safe (tests/test_concurrency.cpp stresses exactly this under TSan).
const ProgressiveBackend* registry_lookup(std::uint8_t id) {
  static const InterpBackend interp;
  static const WaveletBackend wavelet;
  switch (static_cast<BackendId>(id)) {
    case BackendId::kInterp: return &interp;
    case BackendId::kWavelet: return &wavelet;
  }
  return nullptr;
}

}  // namespace

bool backend_id_known(std::uint8_t id) { return registry_lookup(id) != nullptr; }

const ProgressiveBackend& backend_for(BackendId id) {
  const ProgressiveBackend* be = registry_lookup(static_cast<std::uint8_t>(id));
  if (!be) throw std::runtime_error("ipcomp: unknown backend id");
  return *be;
}

const ProgressiveBackend* backend_by_name(const std::string& name) {
  for (std::uint8_t id = 0;; ++id) {
    const ProgressiveBackend* be = registry_lookup(id);
    if (!be) return nullptr;
    if (name == be->name()) return be;
  }
}

Bytes serialize_base_segment(const LevelScratch& ls, bool progressive,
                             CodecPolicy codec) {
  ByteWriter w;
  w.varint(ls.outliers.size());
  std::uint64_t prev = 0;
  for (auto [slot, value] : ls.outliers) {
    w.varint(slot - prev);
    w.f64(value);
    prev = slot;
  }
  if (!progressive) {
    // Solid level: store the whole code array through the codec.
    Bytes raw(ls.codes.size() * 4);
    for (std::size_t i = 0; i < ls.codes.size(); ++i) {
      std::uint32_t c = ls.codes[i];
      raw[4 * i + 0] = static_cast<std::uint8_t>(c);
      raw[4 * i + 1] = static_cast<std::uint8_t>(c >> 8);
      raw[4 * i + 2] = static_cast<std::uint8_t>(c >> 16);
      raw[4 * i + 3] = static_cast<std::uint8_t>(c >> 24);
    }
    Bytes packed = codec_compress({raw.data(), raw.size()}, codec);
    w.varint(packed.size());
    w.bytes(packed);
  }
  return w.take();
}

void append_plane_segments(std::vector<PlaneBits>&& planes,
                           std::uint16_t level_tag, std::uint32_t block,
                           CodecPolicy codec,
                           std::vector<std::pair<SegmentId, Bytes>>& out) {
  const unsigned n_planes = static_cast<unsigned>(planes.size());
  if (n_planes == 0) return;
  std::vector<Bytes> packed(n_planes);
  parallel_for(0, n_planes, [&](std::size_t k) {
    packed[k] = codec_compress({planes[k].data(), planes[k].size()}, codec);
  }, /*grain=*/1);
  for (unsigned k = 0; k < n_planes; ++k) {
    out.emplace_back(SegmentId{kSegPlane, level_tag, k, block},
                     std::move(packed[k]));
  }
}

}  // namespace ipcomp
