// ipc — command-line front end for IPComp archives.
//
//   ipc compress <input.raw> <output.ipc> --dims ZxYxX [--type f64|f32]
//                [--eb 1e-6] [--abs] [--interp cubic|linear] [--block-side N]
//                [--backend interp|wavelet]
//   ipc retrieve <archive.ipc> <output.raw>
//                [--eb E | --bytes N | --bitrate B | --full]
//                [--region z0:z1xy0:y1xx0:x1] [--dry-run]
//   ipc info     <archive.ipc>
//   ipc stats    <original.raw> <candidate.raw> --dims ZxYxX [--type f64|f32]
//   ipc serve    <archive.ipc> [--clients N] [--rounds R] [--cache-budget MB]
//                [--quota BYTES]
//   ipc serve    <archive.ipc> --listen ADDR [--workers N]
//                [--cache-budget MB] [--quota BYTES] [--fault-seed S]
//   ipc serve    <name> --connect ADDR [--clients N] [--rounds R]
//
// Raw files are dense row-major little-endian arrays (SDRBench layout).
// --block-side N compresses in independent N^d blocks (without it, the field
// is one block): compression parallelizes across blocks and --region
// retrieves a sub-box by reading only the blocks that intersect it.  --region
// composes with any fidelity flag ("this region at eb 1e-3"); alone it means
// full fidelity.
// --dry-run prints the retrieval plan — segments, predicted bytes, predicted
// guaranteed error — without fetching a payload byte (the output file may be
// omitted).  --backend selects the progressive backend (interp = the paper's
// interpolation predictor, wavelet = CDF 9/7; wavelet archives use format
// v3).
// `serve` drives N concurrent client sessions through one shared
// ArchiveSet (segment LRU cache + pooled I/O) and reports throughput, cache
// hit rate and physical-vs-logical I/O; --quota caps each session's bytes
// and counts plan-admission rejections.  With --listen it instead runs the
// network daemon (net/server.hpp) on "host:port" or "unix:/path", exporting
// the archive under both its path and basename; SIGINT/SIGTERM drain
// gracefully and print the server stats.
// With --connect it drives the same mixed traffic as the in-process mode
// through RemoteReader clients against a running daemon and prints the
// daemon's STAT reply.  Unknown flags and malformed values exit non-zero
// with a usage hint.
#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ipcomp.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace {

using namespace ipcomp;

[[noreturn]] void usage(const std::string& msg = "") {
  if (!msg.empty()) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage:\n"
      "  ipc compress <input.raw> <output.ipc> --dims ZxYxX [--type f64|f32]\n"
      "               [--eb 1e-6] [--abs] [--interp cubic|linear] [--block-side N]\n"
      "               [--backend interp|wavelet]\n"
      "  ipc retrieve <archive.ipc> <output.raw>\n"
      "               [--eb E | --bytes N | --bitrate B | --full]\n"
      "               [--region z0:z1xy0:y1xx0:x1] [--dry-run]\n"
      "  ipc info     <archive.ipc>\n"
      "  ipc stats    <original.raw> <candidate.raw> --dims ZxYxX [--type f64|f32]\n"
      "  ipc serve    <archive.ipc> [--clients N] [--rounds R] [--cache-budget MB]\n"
      "               [--quota BYTES]\n"
      "  ipc serve    <archive.ipc> --listen ADDR [--workers N]\n"
      "               [--cache-budget MB] [--quota BYTES] [--fault-seed S]\n"
      "  ipc serve    <name> --connect ADDR [--clients N] [--rounds R]\n";
  std::exit(2);
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static Args parse(int argc, char** argv) {
    Args a;
    for (int i = 2; i < argc; ++i) {
      std::string s = argv[i];
      if (s.rfind("--", 0) == 0) {
        std::string key = s.substr(2);
        // insert_or_assign with an explicit std::string temporary sidesteps a
        // GCC 12 -Wrestrict false positive (PR 105329) in the inlined
        // mapped_type::operator=(const char*), which -Werror turns fatal.
        if (key == "abs" || key == "full" || key == "dry-run") {
          a.flags.insert_or_assign(key, std::string("1"));
        } else {
          if (i + 1 >= argc) usage("missing value for --" + key);
          a.flags.insert_or_assign(key, std::string(argv[++i]));
        }
      } else {
        a.positional.push_back(s);
      }
    }
    return a;
  }

  /// Reject flags the current command does not understand: a typo silently
  /// ignored (e.g. --bakend) would compress with defaults.
  void allow_only(std::initializer_list<const char*> allowed) const {
    for (const auto& [key, value] : flags) {
      bool ok = false;
      for (const char* k : allowed) ok = ok || key == k;
      if (!ok) usage("unknown flag --" + key);
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    auto it = flags.find(key);
    if (it == flags.end()) return std::nullopt;
    return it->second;
  }
};

/// Strict numeric flag parsing: the whole token must be consumed and lead
/// with a digit (stod/stoull would accept whitespace, '+', "nan"), so
/// "--eb 1e-6x", "--eb nan" or "--block-side ' -1'" fail loudly instead of
/// truncating, poisoning the quantizer, or wrapping negative.
double parse_double(const std::string& s, const std::string& flag) {
  try {
    const bool leads_ok =
        !s.empty() && (std::isdigit(static_cast<unsigned char>(s[0])) ||
                       s[0] == '-' || s[0] == '.');
    std::size_t pos = 0;
    double v = leads_ok ? std::stod(s, &pos) : 0.0;
    if (!leads_ok || pos != s.size() || !std::isfinite(v)) {
      usage("malformed value '" + s + "' for --" + flag);
    }
    return v;
  } catch (const std::logic_error&) {
    usage("malformed value '" + s + "' for --" + flag);
  }
}

std::size_t parse_size(const std::string& s, const std::string& flag) {
  try {
    const bool leads_ok =
        !s.empty() && std::isdigit(static_cast<unsigned char>(s[0]));
    std::size_t pos = 0;
    unsigned long long v = leads_ok ? std::stoull(s, &pos) : 0;
    if (!leads_ok || pos != s.size()) {
      usage("malformed value '" + s + "' for --" + flag);
    }
    return static_cast<std::size_t>(v);
  } catch (const std::logic_error&) {
    usage("malformed value '" + s + "' for --" + flag);
  }
}

/// Parse a half-open region spec "lo:hi" per dimension, 'x'-separated, e.g.
/// "0:64x32:96x0:128".  Must have one lo:hi pair per archive dimension.
std::pair<std::array<std::size_t, kMaxRank>, std::array<std::size_t, kMaxRank>>
parse_region(const std::string& spec, std::size_t rank) {
  std::array<std::size_t, kMaxRank> lo{}, hi{};
  std::size_t dim = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    if (dim >= rank) usage("too many dimensions in --region");
    std::size_t next = spec.find('x', pos);
    std::string part = spec.substr(pos, next == std::string::npos ? next : next - pos);
    std::size_t colon = part.find(':');
    if (colon == std::string::npos) usage("--region wants lo:hi per dimension");
    lo[dim] = parse_size(part.substr(0, colon), "region");
    hi[dim] = parse_size(part.substr(colon + 1), "region");
    ++dim;
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  if (dim != rank) usage("--region must name all archive dimensions");
  return {lo, hi};
}

Dims parse_dims(const std::string& spec) {
  std::size_t extents[kMaxRank];
  std::size_t rank = 0;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    if (rank >= kMaxRank) usage("too many dimensions in --dims");
    std::size_t next = spec.find('x', pos);
    std::string part = spec.substr(pos, next == std::string::npos ? next : next - pos);
    extents[rank++] = parse_size(part, "dims");
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  if (rank == 0) usage("empty --dims");
  return Dims::of_rank(rank, extents);
}

template <typename T>
std::vector<T> read_raw(const std::string& path, std::size_t count) {
  Bytes raw = read_file(path);
  if (raw.size() != count * sizeof(T)) {
    usage("file " + path + " has " + std::to_string(raw.size()) +
          " bytes, expected " + std::to_string(count * sizeof(T)));
  }
  std::vector<T> out(count);
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

template <typename T>
void write_raw(const std::string& path, const std::vector<T>& values) {
  Bytes raw(values.size() * sizeof(T));
  std::memcpy(raw.data(), values.data(), raw.size());
  write_file(path, raw);
}

template <typename T>
int do_compress(const Args& a) {
  Dims dims = parse_dims(*a.get("dims"));
  auto values = read_raw<T>(a.positional[0], dims.count());

  Options opt;
  opt.error_bound = a.get("eb") ? parse_double(*a.get("eb"), "eb") : 1e-6;
  opt.relative = !a.get("abs");
  if (auto interp = a.get("interp")) {
    if (*interp == "linear") {
      opt.interp = InterpKind::kLinear;
    } else if (*interp == "cubic") {
      opt.interp = InterpKind::kCubic;
    } else {
      usage("unknown interpolation '" + *interp + "' (cubic|linear)");
    }
  }
  if (auto backend = a.get("backend")) {
    const ProgressiveBackend* be = backend_by_name(*backend);
    if (!be) usage("unknown backend '" + *backend + "' (interp|wavelet)");
    opt.backend = be->id();
  }
  opt.block_side =
      a.get("block-side") ? parse_size(*a.get("block-side"), "block-side") : 0;
  Bytes archive = compress(NdConstView<T>(values.data(), dims), opt);
  write_file(a.positional[1], archive);

  std::cout << "compressed " << dims.to_string() << " ("
            << dims.count() * sizeof(T) << " bytes) -> " << archive.size()
            << " bytes, ratio "
            << TableReporter::num(
                   compression_ratio(dims.count() * sizeof(T), archive.size()))
            << "\n";
  return 0;
}

/// Build the Request a retrieve invocation describes: at most one fidelity
/// flag, optionally composed with --region (alone, --region means full
/// fidelity, the legacy behavior).
Request build_request(const Args& a, std::size_t rank) {
  int fidelity_flags = 0;
  for (const char* k : {"eb", "bytes", "bitrate", "full"}) {
    fidelity_flags += a.get(k).has_value();
  }
  if (fidelity_flags > 1) {
    usage("--eb, --bytes, --bitrate and --full are mutually exclusive");
  }
  if (fidelity_flags == 0 && !a.get("region")) {
    usage("retrieve needs --eb, --bytes, --bitrate, --full or --region");
  }
  Request req = Request::full();
  if (a.get("eb")) {
    req = Request::error_bound(parse_double(*a.get("eb"), "eb"));
  } else if (a.get("bytes")) {
    req = Request::bytes(parse_size(*a.get("bytes"), "bytes"));
  } else if (a.get("bitrate")) {
    req = Request::bitrate(parse_double(*a.get("bitrate"), "bitrate"));
  }
  if (a.get("region")) {
    auto [lo, hi] = parse_region(*a.get("region"), rank);
    req = req.within(lo, hi);
  }
  return req;
}

/// --dry-run output: what the plan would fetch, before any payload byte.
void print_plan(const RetrievalPlan& plan, std::size_t rank) {
  std::size_t base = 0, aux = 0, planes = 0;
  for (const SegmentId& id : plan.segments) {
    if (id.kind == kSegBase) ++base;
    else if (id.kind == kSegAux) ++aux;
    else ++planes;
  }
  std::cout << "plan for " << to_string(plan.request, rank) << ":\n"
            << "  blocks in scope   : " << plan.blocks.size()
            << (plan.request.region ? " (region-scoped)" : "") << "\n"
            << "  segments to fetch : " << plan.segments.size() << " ("
            << base << " base, " << aux << " aux, " << planes << " planes)\n"
            << "  predicted bytes   : " << plan.bytes_new << "\n"
            << "  predicted L-inf   : " << TableReporter::sci(plan.guaranteed_error)
            << "\n  plane targets     :";
  for (std::size_t li = 0; li < plan.plane_targets.size(); ++li) {
    std::cout << " L" << li + 1 << "=" << plan.plane_targets[li];
  }
  std::cout << "\n  fetch order       :";
  constexpr std::size_t kMaxListed = 24;
  for (std::size_t i = 0; i < plan.segments.size() && i < kMaxListed; ++i) {
    std::cout << (i ? ", " : " ") << to_string(plan.segments[i]);
  }
  if (plan.segments.size() > kMaxListed) {
    std::cout << ", ... (" << plan.segments.size() - kMaxListed << " more)";
  }
  std::cout << "\n";
}

template <typename T>
int do_retrieve(const Args& a) {
  FileSource src(a.positional[0]);
  ProgressiveReader<T> reader(src);
  const std::size_t rank = reader.header().dims.rank();
  Request req = build_request(a, rank);
  RetrievalPlan plan = reader.plan(req);
  if (a.get("dry-run")) {
    print_plan(plan, rank);
    return 0;
  }
  // main() guarantees two positionals on the non-dry-run path.
  const std::size_t segments = plan.segments.size();
  RetrievalStats st = reader.execute(plan);
  write_raw<T>(a.positional[1], reader.data());
  std::cout << "retrieved " << reader.header().dims.to_string() << ": loaded "
            << st.bytes_total << " bytes ("
            << TableReporter::num(st.bitrate, 4) << " bits/value), guaranteed "
            << "L-inf error " << TableReporter::sci(st.guaranteed_error) << "\n"
            << "fetched " << segments << " segments in " << src.stats().read_calls
            << " reads (" << src.stats().coalesced_ranges << " coalesced ranges)\n";
  return 0;
}

int do_info(const Args& a) {
  FileSource src(a.positional[0]);
  Header h = Header::parse(src.header());
  std::cout << "dims        : " << h.dims.to_string() << "\n"
            << "type        : " << (h.dtype == DataType::kFloat64 ? "f64" : "f32")
            << "\n"
            << "format      : v" << static_cast<int>(h.format) << "\n"
            << "backend     : " << to_string(h.backend) << "\n"
            << "error bound : " << TableReporter::sci(h.eb) << " (absolute)\n"
            << "interpolation: " << to_string(h.interp) << "\n"
            << "prefix bits : " << h.prefix_bits << "\n"
            << "value range : [" << TableReporter::num(h.data_min, 6) << ", "
            << TableReporter::num(h.data_max, 6) << "]\n"
            << "archive size: " << src.total_size() << " bytes\n";
  // Per-level totals over the blocks (planes maxed, the rest summed).
  std::vector<LevelHeader> totals;
  for (const auto& bl : h.block_levels) {
    if (bl.size() > totals.size()) totals.resize(bl.size());
    for (std::size_t li = 0; li < bl.size(); ++li) {
      totals[li].count += bl[li].count;
      totals[li].outlier_count += bl[li].outlier_count;
      totals[li].progressive |= bl[li].progressive;
      totals[li].n_planes = std::max(totals[li].n_planes, bl[li].n_planes);
    }
  }
  std::cout << "block side  : " << h.block_side << " ("
            << h.block_levels.size() << " blocks)\n"
            << "levels      :\n";
  for (std::size_t li = totals.size(); li-- > 0;) {
    const auto& l = totals[li];
    std::cout << "  level " << li + 1 << ": " << l.count << " values, "
              << (l.progressive ? std::to_string(l.n_planes) + " bitplanes"
                                : std::string("solid"))
              << ", " << l.outlier_count << " outliers\n";
  }
  return 0;
}

template <typename T>
int do_stats(const Args& a) {
  Dims dims = parse_dims(*a.get("dims"));
  auto original = read_raw<T>(a.positional[0], dims.count());
  auto candidate = read_raw<T>(a.positional[1], dims.count());
  auto s = compute_error_stats<T>(original, candidate);
  std::cout << "max |error| : " << TableReporter::sci(s.max_abs) << "\n"
            << "MSE         : " << TableReporter::sci(s.mse) << "\n"
            << "PSNR        : " << TableReporter::num(s.psnr, 5) << " dB\n"
            << "value range : " << TableReporter::num(s.range, 6) << "\n";
  return 0;
}

/// Shared by the three serve modes: --cache-budget MB (with the former
/// --cache-mb spelling still accepted).
std::size_t cache_budget_bytes(const Args& a) {
  if (auto mb = a.get("cache-budget")) {
    return parse_size(*mb, "cache-budget") << 20;
  }
  if (auto mb = a.get("cache-mb")) return parse_size(*mb, "cache-mb") << 20;
  return std::size_t{64} << 20;
}

void print_serve_stats(const net::ServeStats& s) {
  // op_slot order (net::kRequestOps), then the unknown-opcode slot.
  static const char* kOps[] = {"HELLO", "OPEN", "FETCH", "STAT", "CLOSE",
                               "unknown"};
  static_assert(std::size(kOps) == net::kRequestOpCount + 1);
  std::cout << "connections : " << s.connections_accepted << " accepted, "
            << s.connections_active << " active, " << s.idle_reaped
            << " idle-reaped, " << s.slow_client_evictions
            << " slow-evicted\n"
            << "frames      : " << s.frames_in << " in / " << s.frames_out
            << " out (";
  for (std::size_t i = 0; i < s.frames_by_opcode.size(); ++i) {
    if (s.frames_by_opcode[i] == 0) continue;
    std::cout << kOps[i] << "=" << s.frames_by_opcode[i] << " ";
  }
  std::cout << "), " << s.errors_sent << " errors, " << s.quota_rejections
            << " quota-rejected\n"
            << "wire        : " << s.wire_bytes_in << " bytes in / "
            << s.wire_bytes_out << " bytes out, " << s.payload_bytes_sent
            << " payload bytes served\n"
            << "physical I/O: " << s.physical_bytes_read << " bytes in "
            << s.physical_read_calls << " reads\n"
            << "cache       : " << s.cache.hits << " hits / " << s.cache.misses
            << " misses (rate " << TableReporter::num(s.cache.hit_rate(), 3)
            << "), " << s.cache.resident_bytes << "/" << s.cache.capacity_bytes
            << " bytes resident\n";
  if (s.faults_injected != 0) {
    std::cout << "faults      : " << s.faults_injected
              << " injected (--fault-seed)\n";
  }
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

/// Daemon mode: run net::Server on --listen until SIGINT/SIGTERM, then
/// drain and print the server-wide stats.
int do_serve_listen(const Args& a) {
  net::ServerConfig cfg;
  cfg.listen = *a.get("listen");
  if (auto w = a.get("workers")) {
    cfg.workers = static_cast<unsigned>(parse_size(*w, "workers"));
    if (cfg.workers == 0) usage("--workers must be >= 1");
  }
  if (auto q = a.get("quota")) cfg.session_quota = parse_size(*q, "quota");
  if (auto s = a.get("fault-seed")) {
    cfg.fault_seed = parse_size(*s, "fault-seed");
  }
  cfg.serve.cache_capacity_bytes = cache_budget_bytes(a);

  net::Server server(cfg);
  const std::string& path = a.positional[0];
  server.export_file(path, path);
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    server.export_file(path.substr(slash + 1), path);
  }
  server.start();
  std::cout << "serving " << path << " on " << server.address() << " ("
            << cfg.workers << " workers, cache "
            << cfg.serve.cache_capacity_bytes << " bytes)\n";
  if (cfg.fault_seed != 0) {
    std::cout << "fault injection armed: seed " << cfg.fault_seed
              << " (send-side resets/torn writes/stalls)\n";
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "draining...\n";
  server.stop();
  print_serve_stats(server.stats());
  return 0;
}

/// Remote-client mode: the in-process smoke load, but through RemoteReader
/// connections against a running daemon.
template <typename T>
int do_serve_connect(const Args& a) {
  const std::string spec = *a.get("connect");
  const std::string& name = a.positional[0];
  const int clients = static_cast<int>(
      a.get("clients") ? parse_size(*a.get("clients"), "clients") : 4);
  const int rounds = static_cast<int>(
      a.get("rounds") ? parse_size(*a.get("rounds"), "rounds") : 1);
  if (clients < 1 || rounds < 1) usage("--clients/--rounds must be >= 1");

  std::atomic<std::size_t> served{0}, rejected{0}, logical_bytes{0},
      wire_bytes{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < rounds; ++r) {
        net::RemoteReader<T> reader(spec, name);
        const std::size_t total = reader.archive().source().total_size();
        const Request traffic[] = {
            Request::error_bound(c % 2 ? 1e-2 : 1e-3),
            Request::bytes(total / 4),
            Request::full(),
        };
        std::size_t used = 0;
        for (const Request& req : traffic) {
          try {
            used += reader.retrieve(req).bytes_new;
            served.fetch_add(1, std::memory_order_relaxed);
          } catch (const QuotaExceeded&) {
            rejected.fetch_add(1, std::memory_order_relaxed);
            break;  // this session's budget is spent
          }
        }
        logical_bytes.fetch_add(used, std::memory_order_relaxed);
        wire_bytes.fetch_add(reader.archive().wire_payload_bytes(),
                             std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::cout << "served      : " << served.load() << " requests (" << clients
            << " clients x " << rounds << " rounds), " << rejected.load()
            << " quota-rejected\n"
            << "throughput  : "
            << TableReporter::num(static_cast<double>(served.load()) /
                                  (seconds > 0 ? seconds : 1e-9))
            << " req/s\n"
            << "logical     : " << logical_bytes.load()
            << " bytes priced, " << wire_bytes.load()
            << " payload bytes on the wire\n"
            << "-- daemon stats --\n";
  net::RemoteArchive probe(spec, name);
  print_serve_stats(probe.stat());
  return 0;
}

/// Multi-tenant smoke load: N concurrent clients x R rounds of mixed
/// fidelity traffic against ONE shared archive handle.  Every session pays
/// its full logical price in its own ledger; the shared cache + pooled I/O
/// keep the physical price far below the sum — the gap is the point.
template <typename T>
int do_serve(const Args& a) {
  const int clients = static_cast<int>(
      a.get("clients") ? parse_size(*a.get("clients"), "clients") : 4);
  const int rounds = static_cast<int>(
      a.get("rounds") ? parse_size(*a.get("rounds"), "rounds") : 1);
  if (clients < 1 || rounds < 1) usage("--clients/--rounds must be >= 1");
  const std::uint64_t quota =
      a.get("quota") ? parse_size(*a.get("quota"), "quota") : 0;

  ServeOptions sopts;
  sopts.cache_capacity_bytes = cache_budget_bytes(a);
  ArchiveSet set(sopts);
  auto handle = set.open_file(a.positional[0]);

  std::atomic<std::size_t> served{0}, rejected{0}, logical_bytes{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < rounds; ++r) {
        Session<T> session(handle, quota);
        const Request traffic[] = {
            Request::error_bound(c % 2 ? 1e-2 : 1e-3),
            Request::bytes(handle->total_size() / 4),
            Request::full(),
        };
        for (const Request& req : traffic) {
          try {
            session.retrieve(req);
            served.fetch_add(1, std::memory_order_relaxed);
          } catch (const QuotaExceeded&) {
            rejected.fetch_add(1, std::memory_order_relaxed);
            break;  // this session's budget is spent
          }
        }
        logical_bytes.fetch_add(session.bytes_used(),
                                std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const SourceStats ss = handle->source_stats();
  const CacheStats cs = handle->cache_stats();
  const double share = ss.bytes_read
                           ? static_cast<double>(logical_bytes.load()) /
                                 static_cast<double>(ss.bytes_read)
                           : 0.0;
  std::cout << "served      : " << served.load() << " requests ("
            << clients << " clients x " << rounds << " rounds), "
            << rejected.load() << " quota-rejected\n"
            << "throughput  : "
            << TableReporter::num(
                   static_cast<double>(served.load()) /
                   (seconds > 0 ? seconds : 1e-9))
            << " req/s\n"
            << "cache       : " << cs.hits << " hits / " << cs.misses
            << " misses (rate "
            << TableReporter::num(cs.hit_rate(), 3) << "), " << cs.evictions
            << " evictions, " << cs.resident_bytes << "/" << cs.capacity_bytes
            << " bytes resident\n"
            << "physical I/O: " << ss.bytes_read << " bytes in "
            << ss.read_calls << " reads (" << ss.coalesced_ranges
            << " coalesced ranges)\n"
            << "logical I/O : " << logical_bytes.load()
            << " bytes across all sessions (sharing factor "
            << TableReporter::num(share) << "x)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  Args args = Args::parse(argc, argv);
  if (auto t = args.get("type"); t && *t != "f32" && *t != "f64") {
    usage("unknown type '" + *t + "' (f64|f32)");
  }
  const bool f32 = args.get("type") == std::optional<std::string>("f32");

  try {
    if (cmd == "compress") {
      args.allow_only({"dims", "type", "eb", "abs", "interp", "block-side",
                       "backend"});
      if (args.positional.size() != 2 || !args.get("dims")) usage();
      return f32 ? do_compress<float>(args) : do_compress<double>(args);
    }
    if (cmd == "retrieve") {
      args.allow_only({"eb", "bytes", "bitrate", "full", "region", "dry-run"});
      // --dry-run needs no output file; everything else does.
      if (args.positional.empty() ||
          args.positional.size() > 2 ||
          (args.positional.size() == 1 && !args.get("dry-run"))) {
        usage();
      }
      // Value type is recorded in the archive; probe it.
      FileSource probe(args.positional[0]);
      bool is32 = Header::parse(probe.header()).dtype == DataType::kFloat32;
      return is32 ? do_retrieve<float>(args) : do_retrieve<double>(args);
    }
    if (cmd == "info") {
      args.allow_only({});
      if (args.positional.size() != 1) usage();
      return do_info(args);
    }
    if (cmd == "serve") {
      args.allow_only({"clients", "rounds", "cache-mb", "cache-budget",
                       "quota", "listen", "connect", "workers",
                       "fault-seed"});
      if (args.positional.size() != 1) usage();
      if (args.get("listen") && args.get("connect")) {
        usage("--listen and --connect are mutually exclusive");
      }
      if (args.get("listen")) return do_serve_listen(args);
      if (args.get("connect")) {
        // Value type is recorded in the archive; probe it over the wire.
        net::RemoteArchive probe(*args.get("connect"), args.positional[0]);
        bool is32 =
            Header::parse(probe.source().header()).dtype == DataType::kFloat32;
        probe.close();
        return is32 ? do_serve_connect<float>(args)
                    : do_serve_connect<double>(args);
      }
      // Value type is recorded in the archive; probe it.
      FileSource probe(args.positional[0]);
      bool is32 = Header::parse(probe.header()).dtype == DataType::kFloat32;
      return is32 ? do_serve<float>(args) : do_serve<double>(args);
    }
    if (cmd == "stats") {
      args.allow_only({"dims", "type"});
      if (args.positional.size() != 2 || !args.get("dims")) usage();
      return f32 ? do_stats<float>(args) : do_stats<double>(args);
    }
  } catch (const net::WireError& e) {
    // Network failures (refused --connect, --listen address in use, a peer
    // that vanished) exit 2 like usage errors: the command never ran, and
    // the message carries op/peer/errno context from the wire layer.
    std::cerr << "network error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command " + cmd);
}
