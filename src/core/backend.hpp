// Pluggable progressive backends.
//
// IPComp's container/retrieval machinery — bitplane segments, level planning,
// per-block decode, region-of-interest blocks — is not specific to the
// interpolation predictor.  A ProgressiveBackend owns the parts that are:
// the per-block transform -> quantize -> bitplane encode pipeline on the
// write side, and code -> field reconstruction plus the per-level error
// amplification used for plane planning on the read side.  Everything else
// (archive layout, base-segment format, plane codecs, the DP plane planner,
// block scheduling) is shared by all backends.
//
// Backends are stateless singletons looked up through a registry keyed by
// the BackendId stored in the archive header (v3; the interpolation backend
// writes the v2 layout, which implies it).  A backend may also
// store one auxiliary segment per block (kSegAux) fetched alongside the base
// segments, and an opaque metadata blob in v3 headers that it validates and
// interprets itself.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bitplane/bitplane.hpp"
#include "core/header.hpp"
#include "core/options.hpp"
#include "io/archive.hpp"
#include "loader/error_model.hpp"
#include "util/dims.hpp"

namespace ipcomp {

const char* to_string(BackendId id);

/// One level's quantized codes and outliers during compression, before
/// serialization.  Outliers are (slot -> exact value) pairs whose meaning is
/// backend-defined (interp: raw data value; wavelet: raw coefficient).
struct LevelScratch {
  std::vector<std::uint32_t> codes;  // negabinary
  std::vector<std::pair<std::uint64_t, double>> outliers;
};

/// One block's compressed output: its level table plus its segments in
/// deterministic order.  Blocks are assembled concurrently into a pre-sized
/// vector indexed by block ordinal, so the archive layout is byte-identical
/// regardless of thread count.
struct BlockCompressResult {
  std::vector<LevelHeader> levels;
  std::vector<std::pair<SegmentId, Bytes>> segments;
};

/// Decode-side view of one block handed to backend reconstruction: the
/// (possibly partial) negabinary codes, the outlier table decoded from the
/// base segments, and the backend's auxiliary segment payload if any.
struct BlockCodes {
  Dims dims;               // block extents
  std::size_t origin = 0;  // element offset of the block origin in the field
  std::vector<std::vector<std::uint32_t>> codes;  // [level][slot]
  std::vector<Bytes> outlier_bitmap;              // [level], maybe empty
  std::vector<std::unordered_map<std::size_t, double>> outlier_value;
  Bytes aux;  // kSegAux payload (empty unless the backend stores one)
};

/// Outlier lookup shared by backend reconstructions (hot path: inline).
inline bool block_outlier(const BlockCodes& bc, unsigned li, std::size_t slot,
                          double& value) {
  const Bytes& bm = bc.outlier_bitmap[li];
  if (bm.empty() || !((bm[slot >> 3] >> (slot & 7)) & 1u)) return false;
  value = bc.outlier_value[li].at(slot);
  return true;
}

/// Thread contract: const-safe and stateless.  Implementations hold no
/// mutable members, so one registered instance serves every thread; the
/// compress/reconstruct hooks run concurrently across blocks and
/// across independent compressions, and must stay reentrant (block-local
/// scratch only — see compress_block).
class ProgressiveBackend {
 public:
  virtual ~ProgressiveBackend() = default;

  virtual BackendId id() const = 0;
  virtual const char* name() const = 0;

  /// Expected per-level slot counts for one block (index 0 = finest level).
  /// Readers validate the header's level tables against this.
  virtual std::vector<std::uint64_t> level_counts(const Dims& block_dims) const = 0;

  /// Whether blocks carry an auxiliary segment (kSegAux, plane 0, level 0)
  /// that must be fetched with the base segments.
  virtual bool has_aux_segment() const = 0;

  /// Opaque metadata stored in v3 headers (empty for the interp backend).
  virtual Bytes metadata(const Header& h) const = 0;
  /// Validate a parsed metadata blob; throws std::runtime_error on a forged
  /// or truncated blob.  Called once per reader construction.
  virtual void validate_metadata(const Header& h) const = 0;

  /// Amplification applied to level `l`'s (1-based, 1 = finest) truncation
  /// loss when planning retrievals and computing guaranteed errors.
  virtual double amplification(const Header& h, ErrorModel model,
                               unsigned l) const = 0;

  /// Compress one block.  `original` points at the block's origin element
  /// inside the enclosing field addressed by `estrides`; the field is only
  /// read.  Each backend gathers its block into its own dense block-local
  /// buffer and sweeps or transforms that copy, so nothing field-sized is
  /// allocated or written.  `work` is ignored (callers may pass nullptr); it
  /// is kept only so perfbench's layer replay, which passes a field copy,
  /// still compiles, and goes when a benchmark change updates that replay.
  /// Runs concurrently across blocks: implementations must only read their
  /// own block's elements.
  virtual BlockCompressResult compress_block(
      const float* original, float* work, const Dims& block_dims,
      const std::array<std::size_t, kMaxRank>& estrides, double eb,
      const Options& opt, std::uint32_t block) const = 0;
  virtual BlockCompressResult compress_block(
      const double* original, double* work, const Dims& block_dims,
      const std::array<std::size_t, kMaxRank>& estrides, double eb,
      const Options& opt, std::uint32_t block) const = 0;

  /// Reconstruction of one block from its (partial) codes into the block's
  /// strided span of the enclosing field, on first touch and again after
  /// new planes arrive.  The result must depend only on `bc`, never on what
  /// the span held, so stepwise retrieval equals a one-shot read.
  virtual void reconstruct(const Header& h, const BlockCodes& bc,
                           float* field) const = 0;
  virtual void reconstruct(const Header& h, const BlockCodes& bc,
                           double* field) const = 0;
};

/// Registry lookup; throws std::runtime_error for an unregistered id.
/// Internally-synchronized: safe from any thread, including concurrent
/// first-touch (the registry is built under magic-static initialization).
const ProgressiveBackend& backend_for(BackendId id);

/// Name lookup ("interp", "wavelet"); nullptr when unknown.  Same thread
/// contract as backend_for.
const ProgressiveBackend* backend_by_name(const std::string& name);

// ---- helpers shared by backend implementations --------------------------

/// Serialize one level's base segment: the delta-coded outlier list plus,
/// for solid (non-progressive) levels, the whole code array through the
/// codec.  The scratch's outliers must already be sorted by slot.
Bytes serialize_base_segment(const LevelScratch& ls, bool progressive,
                             CodecPolicy codec);

/// Pack a progressive level's planes (encode_level's fused pass: predictive
/// residuals when the archive's prefix_bits > 0) into per-plane segments —
/// codec per plane, planes packed independently and concurrently — appended
/// to `out` in table order k = 0 .. planes.size()-1.
void append_plane_segments(std::vector<PlaneBits>&& planes,
                           std::uint16_t level_tag, std::uint32_t block,
                           CodecPolicy codec,
                           std::vector<std::pair<SegmentId, Bytes>>& out);

}  // namespace ipcomp
