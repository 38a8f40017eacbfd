#include "net/server.hpp"

#include <array>
#include <chrono>
#include <map>

#include "core/header.hpp"
#include "serve/session.hpp"

namespace ipcomp::net {

/// Relaxed tallies sampled by stats(); same discipline as SourceStats.
struct Server::Counters {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_active{0};
  std::atomic<std::uint64_t> idle_reaped{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::array<std::atomic<std::uint64_t>, kRequestOpCount + 1> by_op{};
  std::atomic<std::uint64_t> wire_bytes_in{0};
  std::atomic<std::uint64_t> wire_bytes_out{0};
  std::atomic<std::uint64_t> payload_bytes_sent{0};
  std::atomic<std::uint64_t> errors_sent{0};
  std::atomic<std::uint64_t> quota_rejections{0};
  std::atomic<std::uint64_t> slow_client_evictions{0};
  std::atomic<std::uint64_t> faults_injected{0};
};

namespace {

/// Type-erased serve::Session so one connection handler can hold float and
/// double archives alike; the server only plans, fetches and acknowledges —
/// it never touches decoded values, so the element type stays behind this
/// interface.
class SessionAny {
 public:
  virtual ~SessionAny() = default;
  virtual RetrievalPlan plan(const Request& req) const = 0;
  virtual std::vector<Bytes> fetch_for_remote(const RetrievalPlan& p,
                                              RetrievalStats& out) = 0;
  virtual std::uint64_t epoch() const = 0;
  virtual std::uint64_t bytes_used() const = 0;
};

template <typename T>
class SessionOf final : public SessionAny {
 public:
  SessionOf(std::shared_ptr<ArchiveHandle> handle, std::uint64_t quota)
      : session_(std::move(handle), quota) {}
  RetrievalPlan plan(const Request& req) const override {
    return session_.plan(req);
  }
  std::vector<Bytes> fetch_for_remote(const RetrievalPlan& p,
                                      RetrievalStats& out) override {
    return session_.fetch_for_remote(p, out);
  }
  std::uint64_t epoch() const override { return session_.epoch(); }
  std::uint64_t bytes_used() const override { return session_.bytes_used(); }

 private:
  Session<T> session_;
};

std::unique_ptr<SessionAny> make_session(std::shared_ptr<ArchiveHandle> handle,
                                         std::uint64_t quota) {
  const Header h = Header::parse(handle->header_bytes());
  if (h.dtype == DataType::kFloat32) {
    return std::make_unique<SessionOf<float>>(std::move(handle), quota);
  }
  return std::make_unique<SessionOf<double>>(std::move(handle), quota);
}

/// An EXECUTE reply leaves in writes of about this size: large enough that a
/// refinement costs a few syscalls, small enough to bound the batch buffer
/// and keep the client's socket draining.
constexpr std::size_t kReplyBatchBytes = std::size_t{256} << 10;

struct OpenState {
  std::shared_ptr<ArchiveHandle> handle;
  std::unique_ptr<SessionAny> session;
};

/// Registers a live connection's socket for forced shutdown during drain;
/// unregisters on scope exit.
class LiveSocketGuard {
 public:
  LiveSocketGuard(Mutex& mu, std::unordered_map<std::uint64_t, Socket*>& map,
                  std::uint64_t id, Socket* sock)
      : mu_(mu), map_(map), id_(id) {
    LockGuard lock(mu_);
    map_[id_] = sock;
  }
  ~LiveSocketGuard() {
    LockGuard lock(mu_);
    map_.erase(id_);
  }
  LiveSocketGuard(const LiveSocketGuard&) = delete;
  LiveSocketGuard& operator=(const LiveSocketGuard&) = delete;

 private:
  Mutex& mu_;
  std::unordered_map<std::uint64_t, Socket*>& map_;
  std::uint64_t id_;
};

}  // namespace

struct Server::ConnState {
  bool hello_done = false;
  std::uint32_t next_open_id = 1;
  std::map<std::uint32_t, OpenState> opens;
};

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      set_(cfg_.serve),
      counters_(std::make_unique<Counters>()) {}

Server::~Server() { stop(); }

void Server::export_file(const std::string& name, const std::string& path) {
  LockGuard lock(mu_);
  exports_[name] = Export{path, {}, false};
}

void Server::export_memory(const std::string& name, Bytes blob) {
  LockGuard lock(mu_);
  exports_[name] = Export{{}, std::move(blob), true};
}

void Server::start() {
  LockGuard lifecycle(lifecycle_mu_);
  if (running()) throw std::logic_error("server already running");
  listener_ = std::make_unique<Listener>(cfg_.listen);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  const unsigned n = cfg_.workers == 0 ? 1 : cfg_.workers;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::stop(int grace_ms) {
  LockGuard lifecycle(lifecycle_mu_);
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  // Grace window: in-flight connections notice the stop flag at their next
  // frame boundary and close themselves.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  while (counters_->connections_active.load(std::memory_order_relaxed) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Stragglers (idle peers holding the connection open) get a half-close,
  // which pops their handler out of recv immediately.
  {
    LockGuard lock(mu_);
    for (auto& [id, sock] : live_socks_) sock->shutdown_both();
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  listener_->close();
  listener_.reset();
  running_.store(false, std::memory_order_release);
}

std::string Server::address() const {
  if (!listener_) throw std::logic_error("server not started");
  return listener_->address();
}

ServeStats Server::stats() const {
  ServeStats s;
  const Counters& c = *counters_;
  s.connections_accepted = c.connections_accepted.load(std::memory_order_relaxed);
  s.connections_active = c.connections_active.load(std::memory_order_relaxed);
  s.idle_reaped = c.idle_reaped.load(std::memory_order_relaxed);
  s.frames_in = c.frames_in.load(std::memory_order_relaxed);
  s.frames_out = c.frames_out.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.frames_by_opcode.size(); ++i) {
    s.frames_by_opcode[i] = c.by_op[i].load(std::memory_order_relaxed);
  }
  s.wire_bytes_in = c.wire_bytes_in.load(std::memory_order_relaxed);
  s.wire_bytes_out = c.wire_bytes_out.load(std::memory_order_relaxed);
  s.payload_bytes_sent = c.payload_bytes_sent.load(std::memory_order_relaxed);
  s.errors_sent = c.errors_sent.load(std::memory_order_relaxed);
  s.quota_rejections = c.quota_rejections.load(std::memory_order_relaxed);
  s.slow_client_evictions =
      c.slow_client_evictions.load(std::memory_order_relaxed);
  s.faults_injected = c.faults_injected.load(std::memory_order_relaxed);
  {
    LockGuard lock(mu_);
    for (const auto& [name, handle] : opened_) {
      const SourceStats ss = handle->source_stats();
      s.physical_bytes_read += ss.bytes_read;
      s.physical_read_calls += ss.read_calls;
    }
  }
  s.cache = set_.cache_stats();
  return s;
}

std::shared_ptr<ArchiveHandle> Server::open_export(const std::string& name) {
  LockGuard lock(mu_);
  auto opened = opened_.find(name);
  if (opened != opened_.end()) return opened->second;
  auto it = exports_.find(name);
  if (it == exports_.end()) {
    throw RemoteError(ErrCode::kUnknownArchive, "unknown archive: " + name, 0,
                      0);
  }
  // ArchiveSet::open_* serializes internally; holding mu_ across it also
  // keeps a racing OPEN of the same name from double-opening.
  std::shared_ptr<ArchiveHandle> handle =
      it->second.in_memory ? set_.open_memory(name, it->second.blob)
                           : set_.open_file(it->second.path);
  opened_.emplace(name, handle);
  return handle;
}

void Server::worker_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::optional<Socket> sock;
    try {
      sock = listener_->accept(200);
    } catch (const std::exception&) {
      break;  // listener closed under us (stop) or unrecoverable
    }
    if (!sock) continue;
    counters_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    counters_->connections_active.fetch_add(1, std::memory_order_relaxed);
    // The decrement rides a scope guard and the handler runs inside a
    // catch-all: anything serve_connection leaks (bad_alloc building a reply,
    // an unexpected throw past the per-frame handling) must cost one
    // connection, not std::terminate the daemon or wedge the active count.
    struct ActiveGuard {
      std::atomic<std::uint64_t>& n;
      ~ActiveGuard() { n.fetch_sub(1, std::memory_order_relaxed); }
    } active{counters_->connections_active};
    try {
      serve_connection(std::move(*sock));
    } catch (const std::exception&) {
      // Connection dropped; the socket closes with the Socket RAII owner.
    }
  }
}

void Server::serve_connection(Socket sock) {
  // Receive waits bound idle reaping; the send deadline bounds how long a
  // non-draining client may wedge this handler mid-reply.
  sock.set_timeouts(cfg_.idle_timeout_ms, cfg_.write_deadline_ms);
  FrameChannel ch(std::move(sock), kMaxRequestFrameBytes);
  std::uint64_t conn_id = 0;
  {
    LockGuard lock(mu_);
    conn_id = next_conn_id_++;
  }
  std::shared_ptr<FaultPlan> faults;
  if (cfg_.fault_seed != 0) {
    // Send-side only: injected faults must never corrupt what the server
    // *reads* (requests stay trustworthy); clients exercise their recovery
    // path against resets, torn writes and stalls.
    FaultPlan::Profile profile;
    profile.reset_p = 0.002;
    profile.torn_p = 0.05;
    profile.eintr_p = 0.02;
    profile.delay_p = 0.01;
    profile.on_reads = false;
    profile.on_writes = true;
    faults = FaultPlan::random(cfg_.fault_seed ^ conn_id, profile);
    ch.set_fault_injector(faults);
  }
  LiveSocketGuard guard(mu_, live_socks_, conn_id, &ch.socket());
  ConnState st;
  bool alive = true;
  while (alive && !stopping_.load(std::memory_order_acquire)) {
    std::optional<Frame> f;
    try {
      f = ch.recv();
    } catch (const WireError& e) {
      if (e.kind() == WireError::Kind::kTimeout) {
        counters_->idle_reaped.fetch_add(1, std::memory_order_relaxed);
      } else if (e.kind() == WireError::Kind::kProtocol) {
        send_error(ch, ErrCode::kBadFrame, e.what());
      }
      break;  // mid-frame EOF / IO errors close silently
    }
    if (!f) break;  // clean disconnect
    counters_->frames_in.fetch_add(1, std::memory_order_relaxed);
    counters_->by_op[op_slot(f->op)].fetch_add(1, std::memory_order_relaxed);
    try {
      alive = handle_frame(ch, st, *f);
    } catch (const WireError& e) {
      if (e.kind() == WireError::Kind::kTimeout) {
        // The reply path timed out: a slow client held the socket full past
        // the write deadline.  Evict it.
        counters_->slow_client_evictions.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
      break;  // peer vanished (or stalled) while we were replying
    } catch (const std::exception& e) {
      // Body parse failures (strict ByteReader) and anything else that
      // escaped the per-op handling: report and drop the connection.
      send_error(ch, ErrCode::kBadFrame, e.what());
      break;
    }
  }
  counters_->wire_bytes_in.fetch_add(ch.bytes_in(), std::memory_order_relaxed);
  counters_->wire_bytes_out.fetch_add(ch.bytes_out(),
                                      std::memory_order_relaxed);
  if (faults) {
    counters_->faults_injected.fetch_add(faults->injected(),
                                         std::memory_order_relaxed);
  }
}

void Server::send_frame(FrameChannel& ch, Op op, const ByteWriter& w) {
  ch.send(op, w);
  counters_->frames_out.fetch_add(1, std::memory_order_relaxed);
}

void Server::send_error(FrameChannel& ch, ErrCode code,
                        const std::string& message, std::uint64_t a,
                        std::uint64_t b) {
  ByteWriter w;
  write_error(w, code, message, a, b);
  try {
    ch.send(Op::kError, w);
    counters_->frames_out.fetch_add(1, std::memory_order_relaxed);
  } catch (const WireError&) {
    // Reporting a rejection to a vanished peer is not itself an error.
  }
  counters_->errors_sent.fetch_add(1, std::memory_order_relaxed);
}

bool Server::handle_frame(FrameChannel& ch, ConnState& st, const Frame& f) {
  ByteReader r({f.body.data(), f.body.size()});
  const auto require_end = [&r] {
    if (!r.at_end()) throw std::runtime_error("wire: trailing bytes in frame");
  };

  if (!st.hello_done && !f.is(Op::kHello)) {
    send_error(ch, ErrCode::kBadSequence, "first frame must be HELLO");
    return false;
  }

  switch (static_cast<Op>(f.op)) {
    case Op::kHello: {
      const std::uint32_t version = r.u32();
      require_end();
      if (version != kWireVersion) {
        send_error(ch, ErrCode::kBadVersion, "unsupported protocol version",
                   kWireVersion, version);
        return false;
      }
      st.hello_done = true;
      ByteWriter w;
      w.u32(kWireVersion);
      send_frame(ch, Op::kHelloOk, w);
      return true;
    }

    case Op::kOpen: {
      const std::string name = r.string();
      require_end();
      if (st.opens.size() >= cfg_.max_opens_per_connection) {
        send_error(ch, ErrCode::kTooManyArchives,
                   "per-connection open limit reached",
                   cfg_.max_opens_per_connection);
        return true;
      }
      OpenState os;
      try {
        os.handle = open_export(name);
        os.session = make_session(os.handle, cfg_.session_quota);
      } catch (const RemoteError& e) {
        send_error(ch, e.code(), e.what(), e.a(), e.b());
        return true;
      } catch (const std::exception& e) {
        send_error(ch, ErrCode::kInternal, e.what());
        return true;
      }
      const std::vector<SegmentId> ids = os.handle->segment_ids();
      // Reject un-streamable archives here, while rejection is still a typed
      // ERROR: once EXECUTE starts streaming SEGMENT frames the session has
      // already been charged and an oversized payload could only drop the
      // connection mid-reply.
      for (const SegmentId& id : ids) {
        const std::size_t size = os.handle->segment_size(id);
        if (size > kMaxSegmentPayloadBytes) {
          send_error(ch, ErrCode::kInternal,
                     "archive segment exceeds the wire frame cap", size,
                     kMaxSegmentPayloadBytes);
          return true;
        }
      }
      const std::uint32_t open_id = st.next_open_id++;
      ByteWriter w;
      w.u32(open_id);
      w.u32(os.handle->version());
      w.varint(os.handle->total_size());
      w.varint(os.handle->open_cost());
      const Bytes& header = os.handle->header_bytes();
      w.varint(header.size());
      w.bytes({header.data(), header.size()});
      w.varint(ids.size());
      // v4 archives carry a checksum column (all-or-nothing per archive);
      // the client verifies every SEGMENT payload against it.
      const bool has_checksums =
          !ids.empty() && os.handle->segment_checksum(ids.front()).has_value();
      w.u8(has_checksums ? 1 : 0);
      for (const SegmentId& id : ids) {
        w.u64(id.key(os.handle->version()));
        w.varint(os.handle->segment_size(id));
        if (has_checksums) w.u64(*os.handle->segment_checksum(id));
      }
      st.opens.emplace(open_id, std::move(os));
      send_frame(ch, Op::kOpenOk, w);
      return true;
    }

    case Op::kExecute: {
      const std::uint32_t open_id = r.u32();
      const std::uint64_t epoch = r.u64();
      const Request req = read_request(r);
      const std::uint64_t bytes_new = r.varint();
      const std::uint64_t n_segments = r.varint();
      require_end();
      auto it = st.opens.find(open_id);
      if (it == st.opens.end()) {
        send_error(ch, ErrCode::kBadSequence, "unknown open id", open_id);
        return true;
      }
      OpenState& os = it->second;
      if (epoch != os.session->epoch()) {
        send_error(ch, ErrCode::kStalePlan,
                   "client epoch does not match the session",
                   os.session->epoch(), epoch);
        return true;
      }
      // Plan in place with the client's arithmetic; stream only when both
      // sides priced the same plan.
      RetrievalPlan plan;
      try {
        plan = os.session->plan(req);
      } catch (const std::exception& e) {
        send_error(ch, ErrCode::kBadRequest, e.what());
        return true;
      }
      if (plan.bytes_new != bytes_new || plan.segments.size() != n_segments) {
        send_error(ch, ErrCode::kPriceDrift,
                   "server plan disagrees with the client's price (config or "
                   "version drift)",
                   plan.bytes_new, bytes_new);
        return true;
      }
      RetrievalStats stats;
      std::vector<Bytes> payloads;
      try {
        payloads = os.session->fetch_for_remote(plan, stats);
      } catch (const QuotaExceeded& e) {
        counters_->quota_rejections.fetch_add(1, std::memory_order_relaxed);
        send_error(ch, ErrCode::kQuotaExceeded, e.what(), e.needed(),
                   e.remaining());
        return true;
      } catch (const std::logic_error& e) {
        send_error(ch, ErrCode::kStalePlan, e.what());
        return true;
      } catch (const std::exception& e) {
        send_error(ch, ErrCode::kInternal, e.what());
        return true;
      }
      // The reply stream goes out in batches; counters move as each batch
      // reaches the socket, exactly as they would frame by frame.
      std::uint64_t frames = 0;
      std::uint64_t payload_bytes = 0;
      const auto flush = [&] {
        ch.flush();
        counters_->frames_out.fetch_add(frames, std::memory_order_relaxed);
        counters_->payload_bytes_sent.fetch_add(payload_bytes,
                                                std::memory_order_relaxed);
        frames = payload_bytes = 0;
      };
      const std::uint32_t ver = os.handle->version();
      for (std::size_t i = 0; i < plan.segments.size(); ++i) {
        ByteWriter key;
        key.u64(plan.segments[i].key(ver));
        ch.queue(Op::kSegment, {key.buffer(), payloads[i]});
        ++frames;
        payload_bytes += payloads[i].size();
        if (ch.queued() >= kReplyBatchBytes) flush();
      }
      ByteWriter w;
      w.varint(stats.bytes_new);
      w.varint(stats.bytes_total);
      w.f64(stats.guaranteed_error);
      w.f64(stats.bitrate);
      ch.queue(Op::kExecuteOk, {w.buffer()});
      ++frames;
      flush();
      return true;
    }

    case Op::kResume: {
      const std::uint32_t open_id = r.u32();
      const std::uint64_t n = r.varint();
      if (n > kMaxResumeRequests) {
        send_error(ch, ErrCode::kBadRequest,
                   "resume history exceeds the protocol cap", n,
                   kMaxResumeRequests);
        return true;
      }
      std::vector<Request> history;
      history.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) history.push_back(read_request(r));
      require_end();
      auto it = st.opens.find(open_id);
      if (it == st.opens.end()) {
        send_error(ch, ErrCode::kBadSequence, "unknown open id", open_id);
        return true;
      }
      OpenState& os = it->second;
      // Rebuild the session from scratch and replay the client's
      // acknowledged history through the exact plan/fetch path the original
      // requests took: residency, epoch and the quota ledger land where the
      // dead connection left them, and the shared cache makes the re-fetch
      // cheap.  Payloads are discarded — the client already holds them.
      std::unique_ptr<SessionAny> fresh;
      try {
        fresh = make_session(os.handle, cfg_.session_quota);
        for (const Request& req : history) {
          const RetrievalPlan plan = fresh->plan(req);
          RetrievalStats ignored;
          fresh->fetch_for_remote(plan, ignored);
        }
      } catch (const QuotaExceeded& e) {
        counters_->quota_rejections.fetch_add(1, std::memory_order_relaxed);
        send_error(ch, ErrCode::kQuotaExceeded, e.what(), e.needed(),
                   e.remaining());
        return true;
      } catch (const std::logic_error& e) {
        send_error(ch, ErrCode::kStalePlan, e.what());
        return true;
      } catch (const std::exception& e) {
        send_error(ch, ErrCode::kBadRequest, e.what());
        return true;
      }
      os.session = std::move(fresh);
      ByteWriter w;
      w.varint(os.session->epoch());
      w.varint(os.session->bytes_used());
      send_frame(ch, Op::kResumeOk, w);
      return true;
    }

    case Op::kStat: {
      require_end();
      ByteWriter w;
      write_serve_stats(w, stats());
      send_frame(ch, Op::kStatOk, w);
      return true;
    }

    case Op::kClose: {
      const std::uint32_t open_id = r.u32();
      require_end();
      if (st.opens.erase(open_id) == 0) {
        send_error(ch, ErrCode::kBadSequence, "unknown open id", open_id);
        return true;
      }
      send_frame(ch, Op::kCloseOk, ByteWriter{});
      return true;
    }

    default:
      send_error(ch, ErrCode::kUnknownOpcode,
                 "unknown opcode " + std::to_string(f.op), f.op);
      return true;
  }
}

}  // namespace ipcomp::net
