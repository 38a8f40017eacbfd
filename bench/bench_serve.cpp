// Multi-tenant serving benchmark: N client threads with mixed error-bound /
// byte-budget / region traffic over ONE archive, served two ways:
//
//   shared    — ArchiveSet: every client a Session over one shared handle
//               (segment LRU cache + pooled, offset-merged I/O);
//   isolated  — the pre-serve model: every client its own FileSource +
//               ProgressiveReader, no sharing anywhere.
//
// Both modes run the identical request schedule and must produce identical
// reconstructions; the figure of merit is the physical I/O the shared tier
// saves (read_calls / bytes fetched) plus request throughput and cache hit
// rate.  `--json <path>` writes the summary CI merges into BENCH_ci.json and
// asserts on: throughput_req_s, cache_hit_rate, and read_calls_shared <
// read_calls_isolated at equal reconstructions.
//
// A third block drives the same schedule through the network daemon
// (RemoteReader -> ipc serve), which reads the archive through FileSource:
// over TCP loopback (the "fread" keys) and over a Unix-domain socket.  It
// measures remote throughput, the median request
// latency of TCP against Unix (CI asserts TCP stays within 1.5x: the
// transport floor), and the compressed bytes actually on the wire against
// the logical bytes delivered and the resend-everything baseline a
// non-progressive protocol would move.
//
// A fourth block measures the v4 integrity machinery itself: checksum64
// (word-parallel XXH64) over every segment payload of the bench archive,
// reported as serve.integrity.verify_gbps — CI asserts it is present and
// nonzero, pinning the claim that per-read verification rides at memory
// bandwidth next to decode cost.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ipcomp.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/checksum.hpp"

namespace {

using namespace ipcomp;

struct Traffic {
  std::vector<Request> steps;
};

/// Deterministic per-client schedule: coarse eb, a region drill-down, a byte
/// top-up, then full fidelity — phase-shifted by client id so concurrent
/// demand overlaps but is not identical.
Traffic traffic_for(int client, const Dims& dims) {
  Traffic t;
  const std::size_t x = dims[0], y = dims[1], z = dims[2];
  const std::size_t qx = x / 4, qy = y / 4, qz = z / 4;
  const std::size_t ox = (static_cast<std::size_t>(client) % 4) * qx;
  const std::size_t oy = (static_cast<std::size_t>(client) / 4 % 4) * qy;
  t.steps.push_back(Request::error_bound(client % 2 ? 1e-2 : 1e-3));
  t.steps.push_back(Request::error_bound(1e-5).within(
      {ox, oy, 0, 0}, {ox + qx, oy + qy, qz, 0}));
  t.steps.push_back(Request::bytes(30000 + 1000 * static_cast<std::uint64_t>(client)));
  t.steps.push_back(Request::full());
  return t;
}

struct ModeResult {
  double seconds = 0.0;
  std::size_t requests = 0;
  std::size_t read_calls = 0;   // physical, at the storage source
  std::size_t bytes_read = 0;   // physical, at the storage source
  std::vector<std::vector<double>> outputs;
};

ModeResult run_shared(const std::string& path, int clients,
                      const Dims& dims, std::size_t cache_bytes,
                      CacheStats& cache_out) {
  ServeOptions sopts;
  sopts.cache_capacity_bytes = cache_bytes;
  sopts.io_threads = 2;
  ArchiveSet set(sopts);
  auto handle = set.open_file(path);

  ModeResult r;
  r.outputs.resize(static_cast<std::size_t>(clients));
  std::barrier gate(clients);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      gate.arrive_and_wait();
      Session<double> session(handle);
      for (const Request& req : traffic_for(c, dims).steps) {
        session.execute(session.plan(req));
      }
      r.outputs[static_cast<std::size_t>(c)] = session.data();
    });
  }
  for (auto& th : threads) th.join();
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0).count();
  r.requests = static_cast<std::size_t>(clients) *
               traffic_for(0, dims).steps.size();
  const SourceStats ss = handle->source_stats();
  r.read_calls = ss.read_calls;
  r.bytes_read = ss.bytes_read;
  cache_out = handle->cache_stats();
  return r;
}

ModeResult run_isolated(const std::string& path, int clients, const Dims& dims) {
  ModeResult r;
  r.outputs.resize(static_cast<std::size_t>(clients));
  std::vector<SourceStats> stats(static_cast<std::size_t>(clients));
  std::barrier gate(clients);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      gate.arrive_and_wait();
      FileSource src(path);
      ProgressiveReader<double> reader(src);
      for (const Request& req : traffic_for(c, dims).steps) {
        reader.execute(reader.plan(req));
      }
      r.outputs[static_cast<std::size_t>(c)] = reader.data();
      stats[static_cast<std::size_t>(c)] = src.stats();
    });
  }
  for (auto& th : threads) th.join();
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0).count();
  r.requests = static_cast<std::size_t>(clients) *
               traffic_for(0, dims).steps.size();
  for (const SourceStats& s : stats) {
    r.read_calls += s.read_calls;
    r.bytes_read += s.bytes_read;
  }
  return r;
}

struct DaemonResult {
  double seconds = 0.0;
  std::size_t requests = 0;
  std::uint64_t wire_bytes = 0;     // compressed payload bytes on the wire
  std::uint64_t logical_bytes = 0;  // sum of planned bytes_new (ledger bytes)
  std::uint64_t resend_bytes = 0;   // resend-full-state-per-step baseline
  double median_request_s = 0.0;    // plan + execute, over every request
  std::vector<std::vector<double>> outputs;
};

/// Rounds of the daemon schedule per transport: one round is only 4
/// requests per client, too few for a steady latency median.
constexpr int kDaemonRounds = 5;

/// The shared-mode schedule replayed kDaemonRounds times (fresh clients each
/// round) by remote clients over one daemon listening on `listen`.
/// Byte counts are the first
/// round's; a round that reconstructs differently from the first empties
/// that client's output, failing the comparison in main.
DaemonResult run_daemon(const std::string& path, int clients, const Dims& dims,
                        std::size_t cache_bytes, const std::string& listen) {
  net::ServerConfig cfg;
  cfg.listen = listen;
  cfg.workers = static_cast<unsigned>(clients);
  cfg.serve.cache_capacity_bytes = cache_bytes;
  cfg.serve.io_threads = 2;
  net::Server server(cfg);
  server.export_file("bench", path);
  server.start();
  const std::string addr = server.address();

  DaemonResult r;
  r.outputs.resize(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> wire(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> logical(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> resend(static_cast<std::size_t>(clients));
  std::vector<std::vector<double>> latency(static_cast<std::size_t>(clients));
  std::barrier gate(clients);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto i = static_cast<std::size_t>(c);
      for (int round = 0; round < kDaemonRounds; ++round) {
        gate.arrive_and_wait();
        net::RemoteReader<double> remote(addr, "bench");
        for (const Request& req : traffic_for(c, dims).steps) {
          const auto t_req = std::chrono::steady_clock::now();
          const RetrievalStats st = remote.retrieve(req);
          latency[i].push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t_req)
                                   .count());
          if (round == 0) {
            logical[i] += st.bytes_new;
            resend[i] += st.bytes_total;
          }
        }
        if (round == 0) {
          wire[i] = remote.archive().wire_payload_bytes();
          r.outputs[i] = remote.data();
        } else if (remote.data() != r.outputs[i]) {
          r.outputs[i].clear();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0).count();
  r.requests = static_cast<std::size_t>(clients) * kDaemonRounds *
               traffic_for(0, dims).steps.size();
  std::vector<double> all;
  for (int c = 0; c < clients; ++c) {
    const auto i = static_cast<std::size_t>(c);
    r.wire_bytes += wire[i];
    r.logical_bytes += logical[i];
    r.resend_bytes += resend[i];
    all.insert(all.end(), latency[i].begin(), latency[i].end());
  }
  const auto mid = all.begin() + static_cast<std::ptrdiff_t>(all.size() / 2);
  std::nth_element(all.begin(), mid, all.end());
  r.median_request_s = *mid;
  server.stop();
  return r;
}

struct IntegrityResult {
  double verify_gbps = 0.0;
  std::size_t segments = 0;
  std::size_t bytes = 0;
};

/// Checksum64 throughput over the archive's segment payloads — the exact
/// work every physical read, cache insert, and SEGMENT frame performs.
IntegrityResult run_integrity(const Bytes& archive) {
  MemorySource src{Bytes(archive)};
  const std::vector<SegmentId> ids = src.segment_ids();
  const std::vector<Bytes> payloads = src.read_many(ids);

  IntegrityResult r;
  r.segments = payloads.size();
  for (const Bytes& p : payloads) r.bytes += p.size();

  // Warm up once, then time whole-archive verification sweeps until the
  // clock has accumulated enough signal for a stable GB/s figure.
  volatile std::uint64_t sink = 0;
  for (const Bytes& p : payloads) sink = sink ^ checksum64(p.data(), p.size());
  int sweeps = 0;
  double seconds = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    for (const Bytes& p : payloads) sink = sink ^ checksum64(p.data(), p.size());
    ++sweeps;
    seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0).count();
  } while (seconds < 0.25);
  r.verify_gbps = static_cast<double>(r.bytes) * sweeps / seconds / 1e9;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ipcomp;
  using ipcomp::bench::banner;

  const char* json_path = nullptr;
  int clients = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = std::atoi(argv[i + 1]);
    }
  }
  if (clients < 2) clients = 2;

  banner("Multi-tenant serving", "ArchiveSet vs isolated readers");

  // One mid-size archive on disk (FileSource: real seeks and reads).
  const Dims dims{96, 96, 64};
  Options opt;
  opt.error_bound = 1e-6;
  opt.block_side = 16;
  // Keep the archive genuinely progressive: with the default threshold every
  // level of a 16^3 block is stored whole and partial requests price as full.
  opt.progressive_threshold = 256;
  auto field = ipcomp::generate_field(ipcomp::Field::kPressure, dims);
  const Bytes archive = ipcomp::compress(field.const_view(), opt);
  const std::string path = "bench_serve_archive.ipc";
  ipcomp::write_file(path, archive);
  std::printf("archive: %zu bytes, %d clients x %zu requests\n", archive.size(),
              clients, traffic_for(0, dims).steps.size());

  CacheStats cache;
  ModeResult shared = run_shared(path, clients, dims, std::size_t{64} << 20, cache);
  ModeResult isolated = run_isolated(path, clients, dims);
  const std::size_t daemon_cache = std::size_t{64} << 20;
  DaemonResult daemon_tcp =
      run_daemon(path, clients, dims, daemon_cache, "127.0.0.1:0");
  const char* const sock_path = "bench_serve.sock";
  std::remove(sock_path);  // a crashed earlier run may have left it behind
  DaemonResult daemon_unix = run_daemon(path, clients, dims, daemon_cache,
                                        std::string("unix:") + sock_path);
  const IntegrityResult integrity = run_integrity(archive);
  std::remove(path.c_str());

  // Equal reconstructions or the comparison is meaningless — and the remote
  // clients replay the same schedule, so they must land byte-identical too.
  for (int c = 0; c < clients; ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (shared.outputs[i] != isolated.outputs[i]) {
      std::fprintf(stderr, "FAIL: client %d diverged between modes\n", c);
      return 1;
    }
    if (daemon_tcp.outputs[i] != shared.outputs[i] ||
        daemon_unix.outputs[i] != shared.outputs[i]) {
      std::fprintf(stderr,
                   "FAIL: remote client %d diverged from the local tier\n", c);
      return 1;
    }
  }

  const double throughput =
      static_cast<double>(shared.requests) / (shared.seconds > 0 ? shared.seconds : 1e-9);
  std::printf("shared   : %6.3f s, %zu read_calls, %zu bytes, hit rate %.3f\n",
              shared.seconds, shared.read_calls, shared.bytes_read,
              cache.hit_rate());
  std::printf("isolated : %6.3f s, %zu read_calls, %zu bytes\n",
              isolated.seconds, isolated.read_calls, isolated.bytes_read);
  std::printf("savings  : %.1fx read_calls, %.1fx bytes, %.0f req/s\n",
              static_cast<double>(isolated.read_calls) /
                  static_cast<double>(shared.read_calls ? shared.read_calls : 1),
              static_cast<double>(isolated.bytes_read) /
                  static_cast<double>(shared.bytes_read ? shared.bytes_read : 1),
              throughput);

  const double tp_tcp = static_cast<double>(daemon_tcp.requests) /
                        (daemon_tcp.seconds > 0 ? daemon_tcp.seconds : 1e-9);
  const double tp_unix = static_cast<double>(daemon_unix.requests) /
                         (daemon_unix.seconds > 0 ? daemon_unix.seconds : 1e-9);
  const double tcp_over_unix =
      daemon_tcp.median_request_s /
      (daemon_unix.median_request_s > 0 ? daemon_unix.median_request_s : 1e-9);
  std::printf("daemon   : tcp %6.3f s (%.0f req/s)\n", daemon_tcp.seconds,
              tp_tcp);
  std::printf(
      "transport: tcp p50 %.2f ms, unix p50 %.2f ms (%.0f req/s), "
      "tcp/unix %.2fx\n",
      daemon_tcp.median_request_s * 1e3, daemon_unix.median_request_s * 1e3,
      tp_unix, tcp_over_unix);
  std::printf("wire     : %zu payload bytes for %zu logical (resend baseline %zu, %.1fx saved)\n",
              static_cast<std::size_t>(daemon_tcp.wire_bytes),
              static_cast<std::size_t>(daemon_tcp.logical_bytes),
              static_cast<std::size_t>(daemon_tcp.resend_bytes),
              static_cast<double>(daemon_tcp.resend_bytes) /
                  static_cast<double>(daemon_tcp.wire_bytes ? daemon_tcp.wire_bytes : 1));

  std::printf("integrity: %.2f GB/s verifying %zu segments (%zu bytes)\n",
              integrity.verify_gbps, integrity.segments, integrity.bytes);

  // Per-read verification must be fast enough to ride every boundary; a
  // zero figure means the checksum column or the kernel went missing.
  if (integrity.verify_gbps <= 0.0 || integrity.segments == 0) {
    std::fprintf(stderr, "FAIL: integrity verify throughput not measured\n");
    return 1;
  }

  // Progressive transfer is the protocol's point: the wire must carry no
  // more than the ledger's bytes_new and strictly less than re-sending the
  // accumulated state at every step.
  if (daemon_tcp.wire_bytes == 0 ||
      daemon_tcp.wire_bytes > daemon_tcp.logical_bytes ||
      daemon_tcp.wire_bytes >= daemon_tcp.resend_bytes) {
    std::fprintf(stderr,
                 "FAIL: wire accounting broken (wire %zu, logical %zu, resend %zu)\n",
                 static_cast<std::size_t>(daemon_tcp.wire_bytes),
                 static_cast<std::size_t>(daemon_tcp.logical_bytes),
                 static_cast<std::size_t>(daemon_tcp.resend_bytes));
    return 1;
  }

  if (shared.read_calls >= isolated.read_calls ||
      shared.bytes_read >= isolated.bytes_read) {
    std::fprintf(stderr,
                 "FAIL: shared tier did not beat isolated readers "
                 "(read_calls %zu vs %zu, bytes %zu vs %zu)\n",
                 shared.read_calls, isolated.read_calls, shared.bytes_read,
                 isolated.bytes_read);
    return 1;
  }

  if (json_path) {
    std::FILE* json = std::fopen(json_path, "w");
    if (!json) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(json, "{\n  \"bench\": \"serve\",\n");
    std::fprintf(json, "  \"clients\": %d,\n", clients);
    std::fprintf(json, "  \"requests\": %zu,\n", shared.requests);
    std::fprintf(json, "  \"throughput_req_s\": %.3f,\n", throughput);
    std::fprintf(json, "  \"cache_hit_rate\": %.6f,\n", cache.hit_rate());
    std::fprintf(json, "  \"cache\": {\"hits\": %zu, \"misses\": %zu, \"evictions\": %zu, \"capacity_bytes\": %zu},\n",
                 cache.hits, cache.misses, cache.evictions, cache.capacity_bytes);
    std::fprintf(json, "  \"read_calls_shared\": %zu,\n", shared.read_calls);
    std::fprintf(json, "  \"read_calls_isolated\": %zu,\n", isolated.read_calls);
    std::fprintf(json, "  \"bytes_shared\": %zu,\n", shared.bytes_read);
    std::fprintf(json, "  \"bytes_isolated\": %zu,\n", isolated.bytes_read);
    std::fprintf(json, "  \"seconds_shared\": %.4f,\n", shared.seconds);
    std::fprintf(json, "  \"seconds_isolated\": %.4f,\n", isolated.seconds);
    std::fprintf(json, "  \"daemon\": {\n");
    // The "_fread" keys name the TCP row, which reads through FileSource.
    std::fprintf(json, "    \"throughput_req_s_fread\": %.3f,\n", tp_tcp);
    std::fprintf(json, "    \"throughput_req_s_unix\": %.3f,\n", tp_unix);
    std::fprintf(json, "    \"request_p50_ms_tcp\": %.4f,\n",
                 daemon_tcp.median_request_s * 1e3);
    std::fprintf(json, "    \"request_p50_ms_unix\": %.4f,\n",
                 daemon_unix.median_request_s * 1e3);
    std::fprintf(json, "    \"tcp_over_unix_latency\": %.4f,\n", tcp_over_unix);
    std::fprintf(json, "    \"wire_payload_bytes\": %zu,\n",
                 static_cast<std::size_t>(daemon_tcp.wire_bytes));
    std::fprintf(json, "    \"logical_bytes\": %zu,\n",
                 static_cast<std::size_t>(daemon_tcp.logical_bytes));
    std::fprintf(json, "    \"resend_baseline_bytes\": %zu,\n",
                 static_cast<std::size_t>(daemon_tcp.resend_bytes));
    std::fprintf(json, "    \"seconds_fread\": %.4f\n", daemon_tcp.seconds);
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"integrity\": {\n");
    std::fprintf(json, "    \"verify_gbps\": %.3f,\n", integrity.verify_gbps);
    std::fprintf(json, "    \"segments\": %zu,\n", integrity.segments);
    std::fprintf(json, "    \"bytes\": %zu\n", integrity.bytes);
    std::fprintf(json, "  }\n");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
