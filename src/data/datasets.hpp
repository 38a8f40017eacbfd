// Synthetic stand-ins for the paper's six SDRBench datasets (Table 3).
//
// The originals (Miranda turbulence, RTM seismic wavefield, Hurricane wind
// speed, S3D combustion) are public but large; this module generates
// deterministic fields that reproduce the traits the compressors react to:
// multi-scale spatial correlation, layered fronts, sharp flame surfaces and
// near-zero backgrounds.  `standard_datasets(DataScale::kPaper)` keeps the
// originals' dimensions, so a harness run at that scale has Table 3's shapes
// with synthetic values.  A raw reader (`sdr_raw_read`) accepts real SDRBench .dat/.f32/.f64 files so the
// harnesses can run on the original data when it is available.
#pragma once

#include <string>
#include <vector>

#include "util/dims.hpp"
#include "util/ndarray.hpp"

namespace ipcomp {

enum class Field {
  kDensity,    // turbulence: mass per unit volume
  kPressure,   // turbulence: thermodynamic pressure
  kVelocityX,  // turbulence: x velocity
  kVelocityY,  // turbulence: y velocity (for curl analysis)
  kVelocityZ,  // turbulence: z velocity (for curl analysis)
  kWave,       // seismic: wavefield evolution
  kSpeedX,     // weather: x-direction wind speed
  kCH4,        // combustion: CH4 mass fraction
};

const char* field_name(Field f);

/// Size presets.  kPaper matches Table 3; kSmall is the laptop default used
/// by the benches; kTiny keeps unit tests fast.
enum class DataScale { kTiny, kSmall, kPaper };

/// Scale selected by the IPCOMP_DATA_SCALE environment variable
/// ("tiny" | "small" | "full"), defaulting to kSmall.
DataScale scale_from_env();

struct DatasetSpec {
  Field field;
  std::string name;     // as in Table 3
  std::string domain;   // application domain
  Dims dims;            // extents at the chosen scale
};

/// The six datasets of Table 3 at the given scale.
std::vector<DatasetSpec> standard_datasets(DataScale scale = DataScale::kSmall);

/// Spec for a single field at the given scale.
DatasetSpec dataset_spec(Field f, DataScale scale = DataScale::kSmall);

/// Deterministically generate a field at arbitrary dims.
NdArray<double> generate_field(Field f, const Dims& dims);

/// Generate-once cache (benches touch the same dataset repeatedly).
const NdArray<double>& cached_field(Field f, DataScale scale = DataScale::kSmall);

/// Read a raw SDRBench file (little-endian float32/float64, row-major).
NdArray<double> sdr_raw_read(const std::string& path, const Dims& dims,
                             bool is_float32);

}  // namespace ipcomp
