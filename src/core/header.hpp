// IPComp archive header: everything the optimized data loader needs to plan a
// retrieval without touching payload segments (paper §5: δy tables are
// "pre-computed during compression").
#pragma once

#include <cstdint>
#include <vector>

#include "interp/interpolation.hpp"
#include "io/bytes.hpp"
#include "util/dims.hpp"

namespace ipcomp {

enum class DataType : std::uint8_t { kFloat32 = 0, kFloat64 = 1 };

/// Progressive-backend identifier stored in v3 archive headers.  The backend
/// owns the per-block transform -> quantize -> bitplane pipeline; see
/// core/backend.hpp for the interface and registry.
enum class BackendId : std::uint8_t { kInterp = 0, kWavelet = 1 };

/// True when `id` names a registered backend (defined with the registry in
/// backend.cpp; used by Header::parse to reject forged backend ids).
bool backend_id_known(std::uint8_t id);

template <typename T>
constexpr DataType data_type_of();
template <>
constexpr DataType data_type_of<float>() { return DataType::kFloat32; }
template <>
constexpr DataType data_type_of<double>() { return DataType::kFloat64; }

/// Archive segment kinds (SegmentId::kind).
inline constexpr std::uint16_t kSegBase = 0;   // outliers (+ codes if solid)
inline constexpr std::uint16_t kSegPlane = 1;  // one bitplane of one level
/// Backend-defined per-block auxiliary data, fetched with the base segments
/// (e.g. the wavelet backend's spatial correction list).  v3 archives only.
inline constexpr std::uint16_t kSegAux = 2;

struct LevelHeader {
  std::uint64_t count = 0;       // elements (slots) at this level
  bool progressive = false;      // bitplaned vs stored whole
  std::uint32_t n_planes = 0;    // stored planes: bits [0, n_planes)
  /// truncation_loss_table entries 0..n_planes, in quantization-step units:
  /// worst |value| lost by zeroing the d lowest planes.
  std::vector<std::uint64_t> loss;
  std::uint64_t outlier_count = 0;
};

struct Header {
  DataType dtype = DataType::kFloat64;
  Dims dims;
  double eb = 0.0;  // absolute quantization error bound
  InterpKind interp = InterpKind::kCubic;
  std::uint32_t prefix_bits = 2;
  double data_min = 0.0;
  double data_max = 0.0;
  /// Block decomposition side length (a varint on disk); 0 only from a
  /// parsed v1 or whole-field v3 header, whose one block spans the field.
  std::uint64_t block_side = 0;
  /// Progressive backend that produced (and can decode) the payload.  The
  /// interpolation backend writes the v2 layout; any other backend writes
  /// the v3 layout, which records the id plus an opaque metadata blob the
  /// backend validates and interprets itself.
  BackendId backend = BackendId::kInterp;
  Bytes backend_meta;
  /// Layout the header was parsed from (1, 2 or 3).  Output of parse() only;
  /// serialize() writes write_format().
  std::uint8_t format = 1;
  /// Never filled (levels live in `block_levels`); kept so sources naming it
  /// still compile.
  std::vector<LevelHeader> levels;
  /// Per-block level tables (block ordinal -> levels, index 0 = finest).
  /// Block geometry is derived from dims + block_side (BlockGrid), so only
  /// the level tables are serialized.
  std::vector<std::vector<LevelHeader>> block_levels;

  /// Header layout and container version written for `backend`: 2 for
  /// interp, 3 (backend id + metadata) otherwise.  The one place it is chosen.
  std::uint8_t write_format() const;

  /// Self-versioned: the blob starts with the write_format() tag byte, which
  /// parse() tells from the untagged v1 layout (first byte = dtype, 0 or 1).
  Bytes serialize() const;
  static Header parse(const Bytes& raw);
};

}  // namespace ipcomp
