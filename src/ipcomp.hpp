// IPComp — interpolation-based progressive lossy compression.
//
// Umbrella public header.  Typical use:
//
//   #include "ipcomp.hpp"
//
//   ipcomp::NdArray<double> field = ...;       // your data
//   ipcomp::Options opt;
//   opt.error_bound = 1e-6;                    // relative to the value range
//   ipcomp::Bytes archive = ipcomp::compress(field.const_view(), opt);
//
//   ipcomp::MemorySource src(std::move(archive));
//   ipcomp::ProgressiveReader<double> reader(src);
//   auto coarse = reader.retrieve(ipcomp::Request::error_bound(1e-2));
//   auto finer  = reader.retrieve(ipcomp::Request::bitrate(2.0));
//   auto full   = reader.retrieve(ipcomp::Request::full());  // error <= eb
//   const std::vector<double>& values = reader.data();
//
// retrieve(req) is execute(plan(req)); split the two to inspect what a
// request would fetch before moving any bytes, and compose a region with any
// fidelity target:
//
//   auto plan = reader.plan(
//       ipcomp::Request::error_bound(1e-3).within({0,0,0}, {64,64,64}));
//   // plan.segments / plan.bytes_new / plan.guaranteed_error ...
//   auto stats = reader.execute(plan);
//
// There is nothing to configure on the read side: every plan is the DP
// knapsack under the per-dimension amplification bound, so guaranteed_error
// always bounds the actual L∞ error.  compress() likewise always routes
// segments through the entropy probe (README "Codec orchestration").
//
// Serving many clients from one archive (serve/): an ArchiveSet opens each
// archive once; per-client Sessions share its segment cache and pooled I/O,
// so hot planes are fetched from storage once, and per-session byte quotas
// are enforced exactly at plan admission:
//
//   ipcomp::ArchiveSet set;
//   auto handle = set.open_file("field.ipc");
//   ipcomp::Session<double> session(handle, /*byte_quota=*/1 << 20);
//   auto st = session.retrieve(ipcomp::Request::error_bound(1e-3));
//
// Thread safety (taxonomy in util/sync.hpp; per-class contracts on the
// classes themselves): compress() is safe from any number of threads
// concurrently.  ProgressiveReader and Session are one-per-client —
// serialize access per instance, except plan(), which is const and pure and
// may overlap freely; the serve-layer tier underneath (ArchiveSet,
// SegmentCache, PooledSource) is internally-synchronized.  These contracts
// are machine-checked by the Clang thread-safety analysis and race-tested
// under ThreadSanitizer (tests/test_concurrency.cpp, tests/test_serve.cpp;
// see README "Correctness tooling").
#pragma once

#include "core/backend.hpp"
#include "core/compressor.hpp"
#include "core/header.hpp"
#include "core/options.hpp"
#include "core/progressive_reader.hpp"
#include "core/request.hpp"
#include "io/archive.hpp"
#include "serve/archive_set.hpp"
#include "serve/cache.hpp"
#include "serve/pooled_source.hpp"
#include "serve/session.hpp"
#include "util/dims.hpp"
#include "util/ndarray.hpp"
