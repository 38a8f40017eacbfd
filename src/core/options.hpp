// User-facing compression options.
#pragma once

#include <cstddef>

#include "core/header.hpp"
#include "interp/interpolation.hpp"

namespace ipcomp {

struct Options {
  /// Progressive backend that runs the per-block transform -> quantize ->
  /// bitplane pipeline.  kInterp is the paper's interpolation predictor and
  /// writes archive format v2; every other backend (e.g. kWavelet, a
  /// CDF 9/7 transform) writes format v3.  All backends serve the same
  /// ProgressiveReader Request API, including region-scoped requests.
  BackendId backend = BackendId::kInterp;

  /// Quantization error bound.  When `relative` is true this is multiplied by
  /// the data range (max − min) at compression time, matching the paper's
  /// "eb = 1e-9 × Range(dataset)" convention.
  double error_bound = 1e-6;
  bool relative = true;

  InterpKind interp = InterpKind::kCubic;

  /// Prefix width of the predictive bitplane coder (paper Table 2: 2 is the
  /// sweet spot).  0 disables prediction (raw bitplanes); above 32 throws.
  unsigned prefix_bits = 2;

  /// Levels with fewer elements than this are stored whole (not bitplaned):
  /// their segments are tiny and always loaded — the paper's L_p cutoff.
  std::size_t progressive_threshold = 4096;

  /// Record a per-segment XXH64 checksum at build time (archive container
  /// v4, wrapping whichever base version the backend picks).  Every physical
  /// read — memory, file, cache insert, wire frame — then verifies the payload
  /// and surfaces IntegrityError instead of corrupt data.  Off reproduces
  /// the pre-v4 container byte-for-byte (golden archives, size-sensitive
  /// comparisons against other compressors).
  bool integrity = true;

  /// Side length of the cubic blocks the field is decomposed into.  Blocks
  /// are compressed independently and concurrently, and readers can decode
  /// only the blocks intersecting a region of interest.  0 = one block (the
  /// whole field); 1 is rejected.  For throughput, pick a side so the block
  /// count is at least the thread count (e.g. 64 for a 256^3 field); tiny
  /// blocks cost compression ratio.
  std::size_t block_side = 0;
};

}  // namespace ipcomp
