#include "net/client.hpp"

#include <algorithm>
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
    case ErrCode::kBadRequest:
      throw std::invalid_argument(e.what());
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
  // not a transient fault: the local reader's residency would be priced
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

void RemoteArchive::fetch(std::span<const SegmentId> ids) {
  std::vector<std::uint64_t> keys;
  keys.reserve(ids.size());
  for (const SegmentId& id : ids) keys.push_back(id.key(src_.version_));
  std::sort(keys.begin(), keys.end());
  src_.staged_.clear();  // whatever an interrupted attempt left behind
  last_payload_bytes_ = 0;
  queue_fetch(*ch_, open_id_, keys);
  ch_->flush();
  // The server answers with one SEGMENT per key, in key order, then
  // FETCH_OK; anything else is protocol drift.
  for (std::size_t next = 0;;) {
    std::optional<Frame> got = ch_->recv();
    if (!got) {
      throw WireError(WireError::Kind::kClosed,
                      "server closed the connection mid-fetch");
    }
    const Frame& f = *got;
    if (f.is(Op::kError)) {
      ByteReader r({f.body.data(), f.body.size()});
      throw_mapped(read_error(r));
    }
    if (f.is(Op::kFetchOk) && next == keys.size() && f.body.empty()) return;
    if (!f.is(Op::kSegment)) {
      throw WireError(WireError::Kind::kProtocol,
                      "unexpected reply opcode " + std::to_string(f.op));
    }
    ByteReader r({f.body.data(), f.body.size()});
    const std::uint64_t key = r.u64();
    if (next == keys.size() || key != keys[next]) {
      throw WireError(WireError::Kind::kProtocol,
                      "SEGMENT frame for a key out of the requested order");
    }
    ++next;
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
  }
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
RetrievalStats RemoteReader<T>::execute(const RetrievalPlan& p) {
  if (p.epoch != reader_.epoch()) {
    throw std::logic_error(
        "execute: stale plan (the reader advanced since it was made)");
  }
  // The server keeps nothing between FETCHes, so recovering from a
  // transient failure is a reconnect and the same FETCH again.  A protocol
  // error, storage- or cache-layer corruption (it would only reproduce) and
  // the last allowed attempt propagate.
  for (int attempt = 1;; ++attempt) {
    const auto exhausted = [&] {
      return attempt >= policy_.max_attempts ||
             recoveries_ >= policy_.recovery_budget;
    };
    try {
      if (attempt > 1) {
        archive_.reconnect();
        ++recoveries_;
      }
      archive_.fetch(p.segments);
      break;
    } catch (const WireError& e) {
      if (e.kind() == WireError::Kind::kProtocol || exhausted()) throw;
    } catch (const IntegrityError& e) {
      if (e.layer() != IntegrityError::Layer::kWire || exhausted()) throw;
    }
    ++retries_;
    backoff(attempt);
  }
  return reader_.execute(p);
}

template class RemoteReader<float>;
template class RemoteReader<double>;

}  // namespace ipcomp::net
