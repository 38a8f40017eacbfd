// IPComp compression driver (paper §4).
//
// original → per-block ProgressiveBackend pipeline (Options::backend;
// interp = interpolation predictor with in-loop quantization, wavelet =
// CDF 9/7 transform; both end in per-level negabinary codes + outliers →
// bitplane split → predictive XOR → per-plane codec) → segmented archive.
// The driver owns what is backend-agnostic: bound resolution, block
// decomposition and scheduling, header assembly, container versioning.
#pragma once

#include "core/options.hpp"
#include "io/bytes.hpp"
#include "util/ndarray.hpp"

namespace ipcomp {

/// Compress a field into a serialized progressive archive.
///
/// Thread contract: internally-synchronized — safe to call concurrently from
/// any number of threads over distinct (or even shared, read-only) inputs.
/// All state is on the stack or owned by the call; the only shared structures
/// touched are the backend registry (magic statics) and the SIMD dispatch
/// level, both internally-synchronized.  Raced against itself by
/// tests/test_concurrency.cpp under TSan, with byte-identical output checked
/// against a serial run.
template <typename T>
Bytes compress(NdConstView<T> input, const Options& opt = {});

/// The absolute error bound compression would use for this input/options
/// (resolves relative bounds against the data range).
template <typename T>
double resolve_error_bound(NdConstView<T> input, const Options& opt);

/// Same, with the data range already known.  Validates the configured bound
/// before using it; this is the single place the bound logic lives.  A range
/// whose max − min overflows resolves as eb·max − eb·min; a relative bound
/// that is still not finite throws std::invalid_argument.
double resolve_error_bound(const Options& opt, double data_min, double data_max);

}  // namespace ipcomp
