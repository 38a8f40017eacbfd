#include "net/client.hpp"

#include <chrono>
#include <thread>

#include "util/checksum.hpp"

namespace ipcomp::net {

// ---- StagedSource ---------------------------------------------------------

Bytes StagedSource::read_segment(SegmentId id) {
  std::vector<Bytes> one = read_many({&id, 1});
  return std::move(one.front());
}

std::vector<Bytes> StagedSource::read_many(std::span<const SegmentId> ids) {
  std::vector<Bytes> out;
  out.reserve(ids.size());
  std::size_t delivered = 0;
  for (const SegmentId& id : ids) {
    auto it = staged_.find(id.key(version_));
    if (it == staged_.end()) {
      throw std::runtime_error(
          "remote: server did not deliver a planned segment");
    }
    delivered += it->second.size();
    out.push_back(std::move(it->second));
    staged_.erase(it);
  }
  count_read_call();
  charge_bytes(delivered);
  return out;
}

std::size_t StagedSource::segment_size(SegmentId id) const {
  auto it = sizes_.find(id.key(version_));
  if (it == sizes_.end()) {
    throw std::invalid_argument("remote: unknown segment id");
  }
  return it->second;
}

std::vector<SegmentId> StagedSource::segment_ids() const {
  std::vector<SegmentId> out;
  out.reserve(order_.size());
  for (std::uint64_t key : order_) {
    out.push_back(SegmentId::from_key(key, version_));
  }
  return out;
}

// ---- RemoteArchive --------------------------------------------------------

namespace {

/// Server ERROR frame -> the exception the matching local call would throw.
[[noreturn]] void throw_mapped(const RemoteError& e) {
  switch (e.code()) {
    case ErrCode::kQuotaExceeded:
      throw QuotaExceeded(e.a(), e.b());
    case ErrCode::kStalePlan:
      throw std::logic_error(e.what());
    case ErrCode::kBadRequest:
      throw std::invalid_argument(e.what());
    case ErrCode::kPriceDrift:
      throw std::runtime_error(std::string("remote: ") + e.what());
    default:
      throw e;
  }
}

}  // namespace

RemoteArchive::RemoteArchive(const std::string& spec, const std::string& name,
                             int timeout_ms)
    : spec_(spec), name_(name), timeout_ms_(timeout_ms) {
  connect();
  handshake(/*reopening=*/false);
}

void RemoteArchive::connect() {
  Socket s = dial(spec_);
  s.set_timeouts(timeout_ms_, timeout_ms_);
  ch_.emplace(std::move(s), kMaxFrameBytes);
  if (faults_) ch_->set_fault_injector(faults_);
}

void RemoteArchive::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  faults_ = std::move(injector);
  if (ch_) ch_->set_fault_injector(faults_);
}

void RemoteArchive::reconnect() {
  connect();  // the old channel (if any) closes with its Socket
  handshake(/*reopening=*/true);
}

void RemoteArchive::handshake(bool reopening) {
  // HELLO.
  {
    ByteWriter w;
    w.u32(kWireVersion);
    ch_->send(Op::kHello, w);
    Frame f = expect_reply(Op::kHelloOk);
    ByteReader r({f.body.data(), f.body.size()});
    if (r.u32() != kWireVersion) {
      throw WireError(WireError::Kind::kProtocol,
                      "server accepted HELLO with a different version");
    }
  }
  // OPEN: prime the staged source from the reply — or, on a reconnect,
  // insist the server still exports the identical archive.  A mismatch is
  // not a transient fault: the mirror reader's residency would be priced
  // against bytes the server no longer serves.
  {
    ByteWriter w;
    w.string(name_);
    ch_->send(Op::kOpen, w);
    Frame f = expect_reply(Op::kOpenOk);
    ByteReader r({f.body.data(), f.body.size()});
    const std::uint32_t open_id = r.u32();
    const std::uint32_t version = r.u32();
    const std::size_t total_size = r.varint();
    const std::size_t open_cost = r.varint();
    const std::size_t header_len = r.varint();
    auto header = r.bytes(header_len);
    const std::size_t n = r.varint();
    const bool has_checksums = r.u8() != 0;
    std::vector<std::uint64_t> order;
    std::unordered_map<std::uint64_t, std::size_t> sizes;
    std::unordered_map<std::uint64_t, std::uint64_t> checks;
    order.reserve(n);
    sizes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = r.u64();
      const std::size_t size = r.varint();
      order.push_back(key);
      sizes.emplace(key, size);
      if (has_checksums) checks.emplace(key, r.u64());
    }
    if (!r.at_end()) {
      throw WireError(WireError::Kind::kProtocol,
                      "trailing bytes in OPEN_OK");
    }
    if (reopening) {
      const bool same = version == src_.version_ &&
                        total_size == src_.total_size_ &&
                        open_cost == src_.open_cost_ &&
                        Bytes(header.begin(), header.end()) == src_.header_ &&
                        order == src_.order_ && sizes == src_.sizes_ &&
                        checks == src_.checks_;
      if (!same) {
        throw WireError(WireError::Kind::kProtocol,
                        "archive changed across reconnect: " + name_);
      }
    } else {
      src_.version_ = version;
      src_.total_size_ = total_size;
      src_.open_cost_ = open_cost;
      src_.header_.assign(header.begin(), header.end());
      src_.order_ = std::move(order);
      src_.sizes_ = std::move(sizes);
      src_.checks_ = std::move(checks);
    }
    open_id_ = open_id;
  }
}

Frame RemoteArchive::expect_reply(Op expect) {
  std::optional<Frame> f = ch_->recv();
  if (!f) {
    throw WireError(WireError::Kind::kClosed, "server closed the connection");
  }
  if (f->is(Op::kError)) {
    ByteReader r({f->body.data(), f->body.size()});
    throw_mapped(read_error(r));
  }
  if (!f->is(expect)) {
    throw WireError(WireError::Kind::kProtocol,
                    "unexpected reply opcode " + std::to_string(f->op));
  }
  return std::move(*f);
}

ExecReply RemoteArchive::execute_remote(const RetrievalPlan& p) {
  ByteWriter w;
  w.u32(open_id_);
  w.u64(p.epoch);
  write_request(w, p.request);
  w.varint(p.bytes_new);
  w.varint(p.segments.size());
  ch_->send(Op::kExecute, w);
  last_payload_bytes_ = 0;
  while (true) {
    std::optional<Frame> got = ch_->recv();
    if (!got) {
      throw WireError(WireError::Kind::kClosed,
                      "server closed the connection mid-execute");
    }
    Frame f = std::move(*got);
    if (f.is(Op::kError)) {
      ByteReader r({f.body.data(), f.body.size()});
      throw_mapped(read_error(r));
    }
    if (!f.is(Op::kSegment) && !f.is(Op::kExecuteOk)) {
      throw WireError(WireError::Kind::kProtocol,
                      "unexpected reply opcode " + std::to_string(f.op));
    }
    if (f.is(Op::kSegment)) {
      ByteReader r({f.body.data(), f.body.size()});
      const std::uint64_t key = r.u64();
      auto payload = r.bytes(r.remaining());
      // Wire trust boundary: verify against the OPEN checksum column before
      // the payload can reach the staging area (and the decoder).
      auto check = src_.checks_.find(key);
      if (check != src_.checks_.end()) {
        const std::uint64_t actual = checksum64(payload.data(), payload.size());
        if (actual != check->second) {
          throw IntegrityError(SegmentId::from_key(key, src_.version_),
                               check->second, actual,
                               IntegrityError::Layer::kWire);
        }
      }
      last_payload_bytes_ += payload.size();
      wire_payload_bytes_ += payload.size();
      src_.stage(key, Bytes(payload.begin(), payload.end()));
      continue;
    }
    ByteReader r({f.body.data(), f.body.size()});
    ExecReply rep;
    rep.bytes_new = r.varint();
    rep.bytes_total = r.varint();
    rep.guaranteed_error = r.f64();
    rep.bitrate = r.f64();
    return rep;
  }
}

ResumeReply RemoteArchive::resume_remote(const std::vector<Request>& history) {
  if (history.size() > kMaxResumeRequests) {
    throw std::runtime_error(
        "remote: resume history exceeds the protocol cap of " +
        std::to_string(kMaxResumeRequests) + " requests");
  }
  ByteWriter w;
  w.u32(open_id_);
  w.varint(history.size());
  for (const Request& req : history) write_request(w, req);
  if (w.buffer().size() + 1 > kMaxRequestFrameBytes) {
    throw std::runtime_error(
        "remote: resume history exceeds the request frame cap");
  }
  ch_->send(Op::kResume, w);
  Frame f = expect_reply(Op::kResumeOk);
  ByteReader r({f.body.data(), f.body.size()});
  ResumeReply rep;
  rep.epoch = r.varint();
  rep.bytes_used = r.varint();
  if (!r.at_end()) {
    throw WireError(WireError::Kind::kProtocol, "trailing bytes in RESUME_OK");
  }
  return rep;
}

ServeStats RemoteArchive::stat() {
  ch_->send(Op::kStat, ByteWriter{});
  Frame f = expect_reply(Op::kStatOk);
  ByteReader r({f.body.data(), f.body.size()});
  return read_serve_stats(r);
}

void RemoteArchive::close() {
  ByteWriter w;
  w.u32(open_id_);
  ch_->send(Op::kClose, w);
  expect_reply(Op::kCloseOk);
  ch_->socket().shutdown_both();
}

// ---- RemoteReader ---------------------------------------------------------

template <typename T>
void RemoteReader<T>::check_poisoned() const {
  if (poisoned_) {
    throw std::logic_error(
        "remote reader is poisoned: a previous execute() diverged from the "
        "server after its session advanced; reconnect with a fresh "
        "RemoteReader");
  }
}

template <typename T>
void RemoteReader<T>::backoff(int attempt) {
  std::uint64_t ms = policy_.backoff_base_ms;
  for (int k = 1; k < attempt && ms < policy_.backoff_max_ms; ++k) ms *= 2;
  if (ms > policy_.backoff_max_ms) ms = policy_.backoff_max_ms;
  if (ms == 0) return;
  // Full jitter: sleep uniformly in [ms/2, ms] so concurrent clients do not
  // hammer a recovering server in lockstep.
  const std::uint64_t jittered = ms / 2 + jitter_.uniform_u64(ms / 2 + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
}

template <typename T>
void RemoteReader<T>::recover_connection() {
  archive_.reconnect();
  const ResumeReply rep = archive_.resume_remote(history_);
  if (rep.epoch != reader_.epoch()) {
    throw std::runtime_error(
        "remote: resumed session epoch disagrees with the local mirror");
  }
  ++recoveries_;
}

template <typename T>
template <typename F>
auto RemoteReader<T>::with_recovery(F&& op) -> decltype(op()) {
  int attempt = 0;
  bool healthy = true;
  while (true) {
    try {
      if (!healthy) {
        recover_connection();
        healthy = true;
      }
      return op();
    } catch (const WireError& e) {
      if (e.kind() == WireError::Kind::kProtocol ||
          ++attempt >= policy_.max_attempts ||
          recoveries_ >= policy_.recovery_budget) {
        throw;
      }
      ++retries_;
      healthy = false;
      backoff(attempt);
    } catch (const IntegrityError& e) {
      // Only wire-layer corruption is plausibly transient (a flipped frame);
      // storage/cache corruption would just reproduce on retry.
      if (e.layer() != IntegrityError::Layer::kWire ||
          ++attempt >= policy_.max_attempts ||
          recoveries_ >= policy_.recovery_budget) {
        throw;
      }
      ++retries_;
      healthy = false;
      backoff(attempt);
    }
  }
}

template <typename T>
RetrievalPlan RemoteReader<T>::plan(const Request& req) {
  check_poisoned();
  return reader_.plan(req);
}

template <typename T>
RetrievalStats RemoteReader<T>::execute(const RetrievalPlan& p) {
  check_poisoned();
  if (p.epoch != reader_.epoch()) {
    throw std::logic_error(
        "execute: stale plan (the reader advanced since it was made)");
  }
  // A recovery rebuilds the server session at this same epoch, so the
  // retried EXECUTE is simply the same frame again.
  const ExecReply rep =
      with_recovery([&] { return archive_.execute_remote(p); });
  // From here the server session has advanced and its staged payloads are
  // consumed.  If the local mirror cannot follow — the decode throws, or the
  // accounting cross-check fails — the two sides are permanently
  // desynchronized with no recovery on this connection, so poison the reader
  // and make every later plan/execute fail fast instead of shipping plans
  // priced against a state the server no longer holds.
  try {
    RetrievalStats st = reader_.execute(p);
    if (st.bytes_new != rep.bytes_new) {
      throw std::runtime_error(
          "remote: execution accounting disagrees with the server");
    }
    // Acknowledged on both ends: this request is now part of the state a
    // RESUME replay must rebuild.
    history_.push_back(p.request);
    return st;
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

template class RemoteReader<float>;
template class RemoteReader<double>;

}  // namespace ipcomp::net
