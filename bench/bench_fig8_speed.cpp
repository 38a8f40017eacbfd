// Figure 8: compression and decompression throughput of every compressor
// (including SPERR-R, which the paper adds to this figure only).  All run at
// eb = 1e-9 x range; decompression retrieves full fidelity.  google-benchmark
// binary; reported rate is uncompressed MB/s.
//
// PMGARD compresses losslessly by design, so its compression numbers are not
// eb-comparable (the paper notes the same caveat).
//
// Block-compare mode (`--block-compare`, or `--json <path>` which also writes
// the measurements as JSON for CI's BENCH_ci.json artifact) skips the
// google-benchmark lineup and instead times the block-decomposed pipeline
// against the legacy whole-field path — plus a per-backend section (interp
// vs wavelet at the same block side, including a progressive and a region
// retrieval through the wavelet backend, and the bitplane engine's
// plane-extract / multi-plane-deposit / fused-encode throughput) — on one
// fixed synthetic field:
//   IPCOMP_BENCH_SIDE  cubic field side (default 256)
//   IPCOMP_BENCH_BLOCK block side (default side/4)
//   --repeat N         repetitions, median-of-N (CI passes --repeat 3;
//                      IPCOMP_BENCH_REPS is the fallback default)
// Stage timings are the median of N runs so BENCH_ci.json numbers are stable
// enough to compare across commits.  decompress_block, region_first_read and
// refine also report `minor_faults`, the median getrusage ru_minflt delta of
// the same timed window.  Run with OMP_NUM_THREADS=4 to reproduce
// the >=2x speedup claim.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench_common.hpp"
#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "bitplane/predictive.hpp"
#include "coding/codec.hpp"
#include "coding/lzh.hpp"
#include "coding/rle.hpp"
#include "core/compressor.hpp"
#include "core/progressive_reader.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace ipcomp;
using namespace ipcomp::bench;

void bm_compress(benchmark::State& state,
                 std::shared_ptr<ProgressiveCompressor> comp,
                 const DatasetSpec spec) {
  const auto& data = data_for(spec);
  const double eb = 1e-9 * range_of(data);
  std::size_t archive_size = 0;
  for (auto _ : state) {
    Bytes archive = comp->compress(data.const_view(), eb);
    archive_size = archive.size();
    benchmark::DoNotOptimize(archive.data());
  }
  const auto raw = static_cast<std::int64_t>(data.count() * sizeof(double));
  state.SetBytesProcessed(state.iterations() * raw);
  state.counters["ratio"] = static_cast<double>(raw) /
                            static_cast<double>(archive_size);
}

void bm_decompress(benchmark::State& state,
                   std::shared_ptr<ProgressiveCompressor> comp,
                   const DatasetSpec spec) {
  const auto& data = data_for(spec);
  const double eb = 1e-9 * range_of(data);
  Bytes archive = comp->compress(data.const_view(), eb);
  int passes = 0;
  for (auto _ : state) {
    auto r = comp->retrieve_error(archive, eb);
    passes = r.passes;
    benchmark::DoNotOptimize(r.data.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.count() * sizeof(double)));
  state.counters["passes"] = passes;
}

// ---- block-compare mode --------------------------------------------------

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10)) : fallback;
}

NdArray<double> synthetic_cube(std::size_t side) {
  NdArray<double> field(Dims{side, side, side});
  const double inv = 1.0 / static_cast<double>(side);
  parallel_for(0, side, [&](std::size_t z) {
    double* plane = field.data() + z * side * side;
    const double fz = std::sin(6.9 * static_cast<double>(z) * inv);
    for (std::size_t y = 0; y < side; ++y) {
      const double fy = std::cos(4.3 * static_cast<double>(y) * inv);
      for (std::size_t x = 0; x < side; ++x) {
        plane[y * side + x] =
            fz + fy + std::sin(11.7 * static_cast<double>(x) * inv) +
            0.2 * std::sin(37.0 * static_cast<double>(x + y + z) * inv);
      }
    }
  }, /*grain=*/1);
  return field;
}

struct StageResult {
  double seconds = 0.0;
  double mb_per_s = 0.0;
  long minor_faults = 0;  // median ru_minflt delta over the timed window
};

/// Minor (no-I/O) page faults of this process so far, every thread included.
long minor_faults_now() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_minflt;
}

/// Wall time and minor page faults of one timed window, opened at
/// construction.
class Window {
 public:
  struct Sample {
    double seconds;
    long minor_faults;
  };
  Sample close() const {
    return {timer_.seconds(), minor_faults_now() - faults_};
  }

 private:
  long faults_ = minor_faults_now();
  Timer timer_;
};

/// Fetch-efficiency record of one FileSource-backed progressive sweep
/// (coarse -> medium -> full error-bound requests through plan/execute):
/// how many segments the plans named, how many physical reads the coalescing
/// read_many actually issued, and the payload bytes charged.
struct FetchStats {
  std::size_t segments = 0;
  std::size_t read_calls = 0;
  std::size_t coalesced_ranges = 0;
  std::size_t bytes = 0;
};

FetchStats fetch_sweep(const Bytes& archive, const char* path) {
  write_file(path, archive);
  FetchStats fs;
  {
    FileSource src(path);
    ProgressiveReader<double> reader(src);
    const double eb = reader.compression_eb();
    for (double mult : {1e6, 1e3, 1.0}) {
      RetrievalPlan plan = reader.plan(Request::error_bound(mult * eb));
      fs.segments += plan.segments.size();
      reader.execute(plan);
    }
    fs.read_calls = src.stats().read_calls;
    fs.coalesced_ranges = src.stats().coalesced_ranges;
    fs.bytes = src.stats().bytes_read;
  }
  std::remove(path);
  return fs;
}

/// Median of `reps` runs of `run`, which returns the Window::Sample it timed
/// (seconds and minor faults take their medians independently).
template <typename Run>
StageResult median_timed(int reps, std::size_t raw_bytes, Run&& run) {
  std::vector<double> t(static_cast<std::size_t>(reps));
  std::vector<long> faults(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Window::Sample s = run();
    t[i] = s.seconds;
    faults[i] = s.minor_faults;
  }
  std::sort(t.begin(), t.end());
  std::sort(faults.begin(), faults.end());
  StageResult r;
  r.seconds = t[t.size() / 2];
  r.mb_per_s = mb_per_s(raw_bytes, r.seconds);
  r.minor_faults = faults[faults.size() / 2];
  return r;
}

template <typename Fn>
StageResult median_of(int reps, std::size_t raw_bytes, Fn&& fn) {
  return median_timed(reps, raw_bytes, [&] {
    const Window window;
    fn();
    return window.close();
  });
}

/// Stepwise refinement of an archive: each repetition opens a fresh reader,
/// reads it coarse (1e3 x eb, untimed first touch), then times the ladder
/// 1e2 x eb -> 8 x eb -> full, where every request rebuilds the blocks that
/// received planes.
StageResult refine_stage(int reps, std::size_t raw_bytes, const Bytes& archive,
                         double& sink) {
  return median_timed(reps, raw_bytes, [&] {
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    const double eb = reader.compression_eb();
    reader.retrieve(Request::error_bound(1e3 * eb));
    const Window window;
    reader.retrieve(Request::error_bound(1e2 * eb));
    reader.retrieve(Request::error_bound(8 * eb));
    reader.retrieve(Request::full());
    const Window::Sample sample = window.close();
    sink += reader.data()[0];
    return sample;
  });
}

/// Bitplane-engine throughput on one backend's code profile: plane extract
/// and multi-plane deposit in GB/s of code bytes, the fused encode pass
/// (count + loss table + plane split) in MB/s.
struct BitplaneThroughput {
  double extract_gbps = 0.0;
  double deposit_gbps = 0.0;
  double fused_encode_mbps = 0.0;
};

/// Negabinary codes with geometric magnitude classes; `spread` widens the
/// tail (interp residuals are tighter than wavelet coefficients).  Classes
/// are capped at 14 so every value stays inside negabinary_encode's
/// documented 32-bit range (span/2 = 2^29 < kNegabinaryMax).
std::vector<std::uint32_t> synth_codes(std::size_t n, std::uint64_t seed,
                                       unsigned spread) {
  Rng rng(seed);
  std::vector<std::uint32_t> codes(n);
  for (auto& c : codes) {
    const auto cls = std::min(14u, static_cast<unsigned>(__builtin_ctzll(
                                       rng.next_u64() | (1ull << spread))));
    const std::uint64_t span = 1ull << (2 * cls + 2);
    c = negabinary_encode(static_cast<std::int64_t>(rng.uniform_u64(span)) -
                          static_cast<std::int64_t>(span / 2));
  }
  return codes;
}

BitplaneThroughput bitplane_throughput(int reps, std::size_t n,
                                       std::uint64_t seed, unsigned spread) {
  std::vector<std::uint32_t> codes = synth_codes(n, seed, spread);
  const auto bytes = static_cast<double>(n * 4);
  BitplaneThroughput out;
  const StageResult ex = median_of(reps, n * 4, [&] {
    auto planes = extract_all_planes(codes);
    if (planes[0].empty() && n) std::printf("unreachable\n");
  });
  out.extract_gbps = bytes / 1.0e9 / ex.seconds;

  LevelEncoding enc = encode_level(codes, /*with_loss=*/true);
  std::vector<PlaneSpan> spans;
  for (unsigned k = 0; k < enc.n_planes; ++k) {
    spans.push_back({k, {enc.planes[k].data(), enc.planes[k].size()}});
  }
  std::vector<std::uint32_t> rebuilt(n);
  const StageResult dep = median_of(reps, n * 4, [&] {
    std::fill(rebuilt.begin(), rebuilt.end(), 0u);
    deposit_planes(rebuilt, spans);
  });
  out.deposit_gbps = bytes / 1.0e9 / dep.seconds;
  if (rebuilt != codes) std::printf("unreachable: deposit mismatch\n");

  // The shipped encode: loss table plus predictive residual planes.
  const StageResult en = median_of(reps, n * 4, [&] {
    LevelEncoding e =
        encode_level(codes, /*with_loss=*/true, kDefaultPrefixBits);
    if (e.n_planes != enc.n_planes) std::printf("unreachable\n");
  });
  out.fused_encode_mbps = mb_per_s(n * 4, en.seconds);
  return out;
}

/// The encoder archives were written with before probe routing: encode with
/// zero-run RLE and (from 64 bytes) LZ77+Huffman, keep the smallest of those
/// and raw storage, one tag byte first.  Its bytes equal what that encoder
/// wrote (tests/fixtures/*_tryall.ipc were made by it); here it is only the
/// census's reference, paying two full encodes per segment.
Bytes compress_try_all(std::span<const std::uint8_t> input) {
  if (std::all_of(input.begin(), input.end(),
                  [](std::uint8_t b) { return b == 0; })) {
    return {static_cast<std::uint8_t>(CodecMethod::kEmpty)};
  }
  Bytes best = rle_encode(input);
  CodecMethod method = CodecMethod::kRle;
  if (input.size() >= 64) {
    Bytes lz = lzh_compress(input);
    if (lz.size() < best.size()) {
      best = std::move(lz);
      method = CodecMethod::kLzh;
    }
  }
  if (input.size() < best.size()) {
    best.assign(input.begin(), input.end());
    method = CodecMethod::kRaw;
  }
  best.insert(best.begin(), static_cast<std::uint8_t>(method));
  return best;
}

/// Codec-orchestration census over the entropy stage: the exact per-plane
/// byte streams append_plane_segments feeds codec_compress (encode_level's
/// fused residual planes, prefix 2) under both code profiles, encoded by the
/// probe router vs the try-all reference above.  Records per-method routing
/// counts, encode MB/s of each, the compressed-size delta, and decode MB/s
/// (raw bytes out) of the routed segments: all of them, and the LZH-tagged
/// ones alone, whose decoder runs on one thread (bitpack decodes in parallel
/// chunks).
struct CodecCensus {
  std::size_t segments = 0;
  std::size_t raw_bytes = 0;
  std::size_t method_counts[5] = {};  // indexed by CodecMethod, probe routing
  std::size_t probe_bytes = 0;
  std::size_t tryall_bytes = 0;
  double routed_encode_mbps = 0.0;
  double tryall_encode_mbps = 0.0;
  double speedup = 0.0;
  double ratio_delta_pct = 0.0;  // probe vs try-all compressed size, + = bigger
  double decode_mbps = 0.0;
  double lzh_decode_mbps = 0.0;
};

/// Fewest timed runs behind each census decode median.
constexpr int kDecodeReps = 9;

CodecCensus codec_census(int reps, std::size_t n) {
  CodecCensus c;
  std::vector<Bytes> segs;
  for (auto [seed, spread] : {std::pair<unsigned, unsigned>{303, 12},
                              std::pair<unsigned, unsigned>{404, 20}}) {
    std::vector<std::uint32_t> codes = synth_codes(n, seed, spread);
    LevelEncoding enc =
        encode_level(codes, /*with_loss=*/false, kDefaultPrefixBits);
    for (Bytes& plane : enc.planes) segs.push_back(std::move(plane));
  }
  c.segments = segs.size();
  for (const Bytes& s : segs) c.raw_bytes += s.size();

  const StageResult routed = median_of(reps, c.raw_bytes, [&] {
    std::size_t total = 0;
    for (const Bytes& s : segs) {
      total += codec_compress({s.data(), s.size()}).size();
    }
    c.probe_bytes = total;
  });
  const StageResult tryall = median_of(reps, c.raw_bytes, [&] {
    std::size_t total = 0;
    for (const Bytes& s : segs) {
      total += compress_try_all({s.data(), s.size()}).size();
    }
    c.tryall_bytes = total;
  });
  std::vector<Bytes> routed_segs;
  std::size_t lzh_raw_bytes = 0;
  for (const Bytes& s : segs) {
    Bytes enc = codec_compress({s.data(), s.size()});
    ++c.method_counts[enc[0] < 5 ? enc[0] : 1];
    // Routed encodes must stay lossless — decode once outside the timing.
    Bytes dec = codec_decompress({enc.data(), enc.size()}, s.size());
    if (dec != s) std::printf("unreachable: codec census mismatch\n");
    if (enc[0] == static_cast<std::uint8_t>(CodecMethod::kLzh)) {
      lzh_raw_bytes += s.size();
    }
    routed_segs.push_back(std::move(enc));
  }
  // Decode timings take their own, larger repetition count: a median of
  // `--repeat 3` spread by about a quarter between runs on a shared host.
  auto decode_mbps = [&](bool lzh_only, std::size_t raw_bytes) {
    return median_of(std::max(reps, kDecodeReps), raw_bytes, [&] {
      for (std::size_t i = 0; i < segs.size(); ++i) {
        const Bytes& enc = routed_segs[i];
        if (lzh_only && enc[0] != static_cast<std::uint8_t>(CodecMethod::kLzh)) {
          continue;
        }
        Bytes dec = codec_decompress({enc.data(), enc.size()}, segs[i].size());
        if (dec.size() != segs[i].size()) std::printf("unreachable\n");
      }
    }).mb_per_s;
  };
  c.decode_mbps = decode_mbps(false, c.raw_bytes);
  c.lzh_decode_mbps = decode_mbps(true, lzh_raw_bytes);
  c.routed_encode_mbps = routed.mb_per_s;
  c.tryall_encode_mbps = tryall.mb_per_s;
  c.speedup = tryall.seconds / routed.seconds;
  c.ratio_delta_pct = 100.0 * (static_cast<double>(c.probe_bytes) /
                                   static_cast<double>(c.tryall_bytes) -
                               1.0);
  return c;
}

int block_compare(const char* json_path, int reps) {
  const std::size_t side = env_size("IPCOMP_BENCH_SIDE", 256);
  const std::size_t block = env_size("IPCOMP_BENCH_BLOCK", side / 4);
  std::printf("=== Block-parallel vs legacy whole-field IPComp ===\n");
  std::printf("field %zux%zux%zu f64, block side %zu, threads %d, median of %d\n",
              side, side, side, block, thread_count(), reps);

  NdArray<double> field = synthetic_cube(side);
  const std::size_t raw = field.count() * sizeof(double);

  Options legacy;
  legacy.error_bound = 1e-6;  // relative to range
  Options blocked = legacy;
  blocked.block_side = block;
  // The second first-class backend, at the same field and block side: the
  // per-backend dimension of the CI speed record.  Wavelet compression pays
  // for its exact per-plane loss tables (one inverse transform per plane).
  Options wavelet = blocked;
  wavelet.backend = BackendId::kWavelet;

  Bytes archive_legacy, archive_block, archive_wavelet;
  StageResult c_legacy = median_of(reps, raw, [&] {
    archive_legacy = compress(field.const_view(), legacy);
  });
  StageResult c_block = median_of(reps, raw, [&] {
    archive_block = compress(field.const_view(), blocked);
  });
  StageResult c_wavelet = median_of(reps, raw, [&] {
    archive_wavelet = compress(field.const_view(), wavelet);
  });
  // The bound scan compress() runs before any block: a chunked parallel
  // min/max reduction over the whole field.
  double sink = 0.0;
  StageResult scan = median_of(reps, raw, [&] {
    sink += resolve_error_bound(field.const_view(), blocked);
  });
  StageResult d_legacy = median_of(reps, raw, [&] {
    MemorySource src{Bytes(archive_legacy)};
    ProgressiveReader<double> reader(src);
    reader.retrieve(Request::full());
    sink += reader.data()[0];
  });
  StageResult d_block = median_of(reps, raw, [&] {
    MemorySource src{Bytes(archive_block)};
    ProgressiveReader<double> reader(src);
    reader.retrieve(Request::full());
    sink += reader.data()[0];
  });
  // The serial cost of value-initializing a field-sized buffer of fresh
  // pages on one thread.  A fresh reader's first execute() on a field of
  // 32 MiB or more splits it into slabs that the team pre-faults and the
  // calling thread fills while the blocks decode.
  StageResult fill = median_of(reps, raw, [&] {
    std::vector<double> fresh(field.count());
    benchmark::DoNotOptimize(fresh.data());
    benchmark::ClobberMemory();
  });
  // A fresh reader's full-fidelity read of one block: the field-sized fill
  // dominates it, so this is what a lazily zeroed output would move.  Rated
  // against the block's bytes.
  const std::size_t one_block = std::min(block, side);
  StageResult region_first = median_of(
      reps, one_block * one_block * one_block * sizeof(double), [&] {
        MemorySource src{Bytes(archive_block)};
        ProgressiveReader<double> reader(src);
        reader.retrieve(Request::full().within(
            {0, 0, 0}, {one_block, one_block, one_block}));
        sink += reader.data()[0];
      });
  StageResult refine = refine_stage(reps, raw, archive_block, sink);
  StageResult d_wavelet = median_of(reps, raw, [&] {
    MemorySource src{Bytes(archive_wavelet)};
    ProgressiveReader<double> reader(src);
    reader.retrieve(Request::full());
    sink += reader.data()[0];
  });

  // Progressive + region retrieval through the same reader API, as the CI
  // record that the wavelet backend serves partial requests: bytes fraction
  // loaded for a 1e3x-coarser bound, and for a corner-octant region.
  double wavelet_eb = 0.0, wavelet_partial_guarantee = 0.0;
  std::size_t wavelet_partial_bytes = 0, wavelet_region_bytes = 0;
  {
    MemorySource src{Bytes(archive_wavelet)};
    ProgressiveReader<double> reader(src);
    wavelet_eb = reader.compression_eb();
    auto st = reader.retrieve(Request::error_bound(1e3 * wavelet_eb));
    wavelet_partial_bytes = st.bytes_total;
    wavelet_partial_guarantee = st.guaranteed_error;
    sink += reader.data()[0];
  }
  {
    MemorySource src{Bytes(archive_wavelet)};
    ProgressiveReader<double> reader(src);
    std::array<std::size_t, kMaxRank> lo{}, hi{};
    for (int i = 0; i < 3; ++i) hi[i] = side / 2;
    auto st = reader.retrieve(Request::full().within(lo, hi));
    wavelet_region_bytes = st.bytes_total;
    sink += reader.data()[0];
  }
  if (!std::isfinite(sink)) std::printf("unreachable\n");

  // Fetch efficiency of the plan/execute path against real file I/O, per
  // backend: all of a request's segments go through one read_many call,
  // which FileSource coalesces into bulk reads.
  FetchStats f_interp = fetch_sweep(archive_block, "BENCH_fetch_interp.ipc");
  FetchStats f_wavelet = fetch_sweep(archive_wavelet, "BENCH_fetch_wavelet.ipc");

  // Bitplane-engine throughput on a field-sized code array per backend
  // profile (interp: tight residuals; wavelet: wider coefficient tail).
  const std::size_t n_codes = side * side * side;
  BitplaneThroughput t_interp = bitplane_throughput(reps, n_codes, 101, 12);
  BitplaneThroughput t_wavelet = bitplane_throughput(reps, n_codes, 202, 20);

  // Entropy-stage orchestration: probe-routed vs try-all over the plane
  // segments of both code profiles.
  CodecCensus cc = codec_census(reps, n_codes);

  const double ratio_legacy = static_cast<double>(raw) /
                              static_cast<double>(archive_legacy.size());
  const double ratio_block = static_cast<double>(raw) /
                             static_cast<double>(archive_block.size());
  const double ratio_wavelet = static_cast<double>(raw) /
                               static_cast<double>(archive_wavelet.size());
  const double speedup_c = c_legacy.seconds / c_block.seconds;
  const double speedup_d = d_legacy.seconds / d_block.seconds;

  std::printf("\n%-20s %12s %12s\n", "stage", "seconds", "MB/s");
  std::printf("%-20s %12.3f %12.1f\n", "compress legacy", c_legacy.seconds,
              c_legacy.mb_per_s);
  std::printf("%-20s %12.3f %12.1f\n", "compress block", c_block.seconds,
              c_block.mb_per_s);
  std::printf("%-20s %12.3f %12.1f\n", "compress wavelet", c_wavelet.seconds,
              c_wavelet.mb_per_s);
  std::printf("%-20s %12.3f %12.1f\n", "bound scan", scan.seconds,
              scan.mb_per_s);
  std::printf("%-20s %12.3f %12.1f\n", "decompress legacy", d_legacy.seconds,
              d_legacy.mb_per_s);
  std::printf("%-20s %12.3f %12.1f\n", "decompress block", d_block.seconds,
              d_block.mb_per_s);
  std::printf("%-20s %12.3f %12.1f\n", "field fill", fill.seconds,
              fill.mb_per_s);
  std::printf("%-20s %12.3f %12.1f\n", "region first read",
              region_first.seconds, region_first.mb_per_s);
  std::printf("%-20s %12.3f %12.1f\n", "refine block", refine.seconds,
              refine.mb_per_s);
  std::printf("%-20s %12.3f %12.1f\n", "decompress wavelet", d_wavelet.seconds,
              d_wavelet.mb_per_s);
  std::printf("\nminor faults: decompress block %ld, region first read %ld,"
              " refine block %ld\n",
              d_block.minor_faults, region_first.minor_faults,
              refine.minor_faults);
  std::printf("\nratio: legacy %.2f, block %.2f, wavelet %.2f\n", ratio_legacy,
              ratio_block, ratio_wavelet);
  std::printf("speedup at %d threads: compress %.2fx, decompress %.2fx\n",
              thread_count(), speedup_c, speedup_d);
  std::printf("wavelet progressive: %zu/%zu bytes for a 1e3x bound, "
              "%zu bytes for the corner octant\n",
              wavelet_partial_bytes, archive_wavelet.size(),
              wavelet_region_bytes);
  std::printf("fetch (FileSource sweep): interp %zu segments in %zu reads, "
              "wavelet %zu segments in %zu reads\n",
              f_interp.segments, f_interp.read_calls, f_wavelet.segments,
              f_wavelet.read_calls);
  std::printf("bitplane engine (%s): interp extract %.2f / deposit %.2f GB/s,"
              " fused encode %.1f MB/s; wavelet extract %.2f / deposit %.2f"
              " GB/s, fused encode %.1f MB/s\n",
              to_string(simd_level()), t_interp.extract_gbps,
              t_interp.deposit_gbps, t_interp.fused_encode_mbps,
              t_wavelet.extract_gbps, t_wavelet.deposit_gbps,
              t_wavelet.fused_encode_mbps);
  std::printf("codec orchestration: %zu plane segments (%.1f MB), routed"
              " %.1f MB/s vs try-all %.1f MB/s (%.2fx), size delta %+.2f%%\n",
              cc.segments, static_cast<double>(cc.raw_bytes) / 1.0e6,
              cc.routed_encode_mbps, cc.tryall_encode_mbps, cc.speedup,
              cc.ratio_delta_pct);
  std::printf("codec routing: empty %zu, raw %zu, rle %zu, lzh %zu,"
              " bitpack %zu\n",
              cc.method_counts[0], cc.method_counts[1], cc.method_counts[2],
              cc.method_counts[3], cc.method_counts[4]);
  std::printf("codec decode: all segments %.1f MB/s, lzh segments"
              " (1 thread) %.1f MB/s\n",
              cc.decode_mbps, cc.lzh_decode_mbps);
  std::printf("(target: >=2x compression speedup at 4 threads, >=256^3;"
              " >=1.5x routed vs try-all encode)\n");

  if (json_path) {
    std::FILE* f = std::fopen(json_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"fig8_speed\",\n"
                 "  \"field\": {\"dims\": \"%zux%zux%zu\", \"dtype\": \"f64\","
                 " \"bytes\": %zu},\n"
                 "  \"threads\": %d,\n"
                 "  \"block_side\": %zu,\n"
                 "  \"repeat\": %d,\n"
                 "  \"simd\": \"%s\",\n"
                 "  \"eb_relative\": 1e-6,\n"
                 "  \"stages\": {\n"
                 "    \"compress_legacy\": {\"seconds\": %.6f, \"mb_per_s\": %.2f},\n"
                 "    \"compress_block\": {\"seconds\": %.6f, \"mb_per_s\": %.2f},\n"
                 "    \"bound_scan\": {\"seconds\": %.6f, \"mb_per_s\": %.2f},\n"
                 "    \"decompress_legacy\": {\"seconds\": %.6f, \"mb_per_s\": %.2f},\n"
                 "    \"decompress_block\": {\"seconds\": %.6f, \"mb_per_s\": %.2f,"
                 " \"minor_faults\": %ld},\n"
                 "    \"field_fill\": {\"seconds\": %.6f, \"mb_per_s\": %.2f},\n"
                 "    \"region_first_read\": {\"seconds\": %.6f, \"mb_per_s\": %.2f,"
                 " \"minor_faults\": %ld},\n"
                 "    \"refine\": {\"seconds\": %.6f, \"mb_per_s\": %.2f,"
                 " \"minor_faults\": %ld}\n"
                 "  },\n"
                 "  \"compression_ratio\": {\"legacy\": %.4f, \"block\": %.4f},\n"
                 "  \"speedup\": {\"compress\": %.4f, \"decompress\": %.4f},\n"
                 "  \"codec\": {\n"
                 "    \"segments\": %zu,\n"
                 "    \"raw_bytes\": %zu,\n"
                 "    \"methods\": {\"empty\": %zu, \"raw\": %zu, \"rle\": %zu,"
                 " \"lzh\": %zu, \"bitpack\": %zu},\n"
                 "    \"routed_encode_mbps\": %.2f,\n"
                 "    \"tryall_encode_mbps\": %.2f,\n"
                 "    \"speedup\": %.4f,\n"
                 "    \"ratio_delta_pct\": %.4f,\n"
                 "    \"decode_mbps\": %.2f,\n"
                 "    \"lzh_decode_mbps\": %.2f\n"
                 "  },\n"
                 "  \"backends\": {\n"
                 "    \"interp\": {\n"
                 "      \"compress\": {\"seconds\": %.6f, \"mb_per_s\": %.2f},\n"
                 "      \"decompress\": {\"seconds\": %.6f, \"mb_per_s\": %.2f},\n"
                 "      \"ratio\": %.4f,\n"
                 "      \"fetch\": {\"segments\": %zu, \"read_calls\": %zu,"
                 " \"coalesced_ranges\": %zu, \"bytes\": %zu},\n"
                 "      \"throughput\": {\"extract_gbps\": %.4f,"
                 " \"deposit_gbps\": %.4f, \"fused_encode_mbps\": %.2f}\n"
                 "    },\n"
                 "    \"wavelet\": {\n"
                 "      \"compress\": {\"seconds\": %.6f, \"mb_per_s\": %.2f},\n"
                 "      \"decompress\": {\"seconds\": %.6f, \"mb_per_s\": %.2f},\n"
                 "      \"ratio\": %.4f,\n"
                 "      \"archive_bytes\": %zu,\n"
                 "      \"progressive\": {\"target_over_eb\": 1000,"
                 " \"bytes\": %zu, \"guaranteed_error\": %.6e,"
                 " \"compression_eb\": %.6e},\n"
                 "      \"region_octant_bytes\": %zu,\n"
                 "      \"fetch\": {\"segments\": %zu, \"read_calls\": %zu,"
                 " \"coalesced_ranges\": %zu, \"bytes\": %zu},\n"
                 "      \"throughput\": {\"extract_gbps\": %.4f,"
                 " \"deposit_gbps\": %.4f, \"fused_encode_mbps\": %.2f}\n"
                 "    }\n"
                 "  }\n"
                 "}\n",
                 side, side, side, raw, thread_count(), block, reps,
                 to_string(simd_level()),
                 c_legacy.seconds, c_legacy.mb_per_s, c_block.seconds,
                 c_block.mb_per_s, scan.seconds, scan.mb_per_s,
                 d_legacy.seconds, d_legacy.mb_per_s,
                 d_block.seconds, d_block.mb_per_s, d_block.minor_faults,
                 fill.seconds, fill.mb_per_s,
                 region_first.seconds, region_first.mb_per_s,
                 region_first.minor_faults, refine.seconds, refine.mb_per_s,
                 refine.minor_faults, ratio_legacy, ratio_block,
                 speedup_c, speedup_d,
                 cc.segments, cc.raw_bytes, cc.method_counts[0],
                 cc.method_counts[1], cc.method_counts[2], cc.method_counts[3],
                 cc.method_counts[4], cc.routed_encode_mbps,
                 cc.tryall_encode_mbps, cc.speedup, cc.ratio_delta_pct,
                 cc.decode_mbps, cc.lzh_decode_mbps,
                 c_block.seconds, c_block.mb_per_s, d_block.seconds,
                 d_block.mb_per_s, ratio_block,
                 f_interp.segments, f_interp.read_calls,
                 f_interp.coalesced_ranges, f_interp.bytes,
                 t_interp.extract_gbps, t_interp.deposit_gbps,
                 t_interp.fused_encode_mbps,
                 c_wavelet.seconds, c_wavelet.mb_per_s, d_wavelet.seconds,
                 d_wavelet.mb_per_s, ratio_wavelet, archive_wavelet.size(),
                 wavelet_partial_bytes, wavelet_partial_guarantee, wavelet_eb,
                 wavelet_region_bytes, f_wavelet.segments,
                 f_wavelet.read_calls, f_wavelet.coalesced_ranges,
                 f_wavelet.bytes, t_wavelet.extract_gbps,
                 t_wavelet.deposit_gbps, t_wavelet.fused_encode_mbps);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = static_cast<int>(env_size("IPCOMP_BENCH_REPS", 3));
  const char* json_path = nullptr;
  bool compare = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--block-compare") == 0) {
      compare = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      compare = true;
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      reps = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (reps < 1) {
        std::fprintf(stderr, "bench_fig8: --repeat wants a positive count\n");
        return 2;
      }
    }
  }
  if (compare) return block_compare(json_path, reps);

  banner("Compression / decompression speed", "paper Fig. 8");
  for (const auto& spec : datasets()) {
    for (auto& comp : speed_lineup()) {
      benchmark::RegisterBenchmark(
          ("compress/" + comp->name() + "/" + spec.name).c_str(),
          [comp, spec](benchmark::State& st) { bm_compress(st, comp, spec); })
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          ("decompress/" + comp->name() + "/" + spec.name).c_str(),
          [comp, spec](benchmark::State& st) { bm_decompress(st, comp, spec); })
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\nExpected shape: IPComp fastest or near-fastest except SZ3-M "
              "decompression (single-output decode, but its Fig. 5 ratio is "
              "unusable); SPERR-R slowest; residual methods pay one pass per "
              "stage.\n");
  return 0;
}
