// SPERR-style wavelet compressor (paper Fig. 8; Li et al., IPDPS'23).
//
// CDF 9/7 multi-level transform → uniform coefficient quantization → Huffman
// + LZ77 entropy stage → L∞ outlier correction: compression decodes its own
// output, finds every point whose error exceeds the tolerance and stores an
// exact correction, so the L∞ bound holds unconditionally (this self-check is
// also why SPERR-class compressors are slow, which Fig. 8 relies on).
//
// Deviation from reference SPERR: the SPECK set-partitioning coder is
// replaced by Huffman-coded quantization indices — same pipeline shape,
// simpler entropy stage.  Fig. 8 compares speed, and the speed is set by the
// transform and the correction pass, not by the index coder.
#pragma once

#include "baselines/baseline.hpp"

namespace ipcomp {

class SperrCompressor final : public Compressor {
 public:
  std::string name() const override { return "SPERR"; }
  Bytes compress(NdConstView<double> data, double eb_abs) override;
  std::vector<double> decompress(const Bytes& archive) override;
};

}  // namespace ipcomp
