#include "net/wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>

namespace ipcomp::net {

namespace {

[[noreturn]] void throw_errno(WireError::Kind kind, const std::string& what) {
  throw WireError(kind, what, errno, "");
}

/// Peer address of a connected socket for error context: "ip:port" for
/// AF_INET, "unix:<path>" (often just "unix:" — client sockets are unnamed)
/// for AF_UNIX, "" when the socket has no peer.
std::string peer_name(const Socket& sock) {
  if (!sock.valid()) return "";
  sockaddr_storage ss{};
  socklen_t len = sizeof ss;
  if (::getpeername(sock.fd(), reinterpret_cast<sockaddr*>(&ss), &len) != 0) {
    return "";
  }
  if (ss.ss_family == AF_INET) {
    const auto* in = reinterpret_cast<const sockaddr_in*>(&ss);
    char ip[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &in->sin_addr, ip, sizeof ip);
    return std::string(ip) + ":" + std::to_string(ntohs(in->sin_port));
  }
  if (ss.ss_family == AF_UNIX) {
    const auto* un = reinterpret_cast<const sockaddr_un*>(&ss);
    // sun_path may be empty (unnamed) and is not guaranteed terminated.
    const std::size_t cap = len > offsetof(sockaddr_un, sun_path)
                                ? len - offsetof(sockaddr_un, sun_path)
                                : 0;
    return "unix:" + std::string(un->sun_path,
                                 ::strnlen(un->sun_path, cap));
  }
  return "";
}

std::string compose_wire_message(const std::string& op, int sys_errno,
                                 const std::string& peer) {
  std::string out = op;
  if (!peer.empty()) out += " (peer " + peer + ")";
  if (sys_errno != 0) {
    out += ": ";
    out += std::strerror(sys_errno);
  }
  return out;
}

void set_option(const Socket& sock, int level, int opt, const char* name,
                const void* value, socklen_t len) {
  if (::setsockopt(sock.fd(), level, opt, value, len) != 0) {
    const int saved = errno;
    throw WireError(WireError::Kind::kIo, std::string("setsockopt ") + name,
                    saved, peer_name(sock));
  }
}

/// Request/reply traffic is latency-bound: without TCP_NODELAY a small
/// frame written behind data the peer has not yet ACKed sits in Nagle's
/// buffer until the peer's delayed ACK fires.
void set_nodelay(const Socket& sock) {
  const int one = 1;
  set_option(sock, IPPROTO_TCP, TCP_NODELAY, "TCP_NODELAY", &one, sizeof one);
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_inet_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // Numeric IPv4 only (plus the "localhost" convenience): the daemon is not
  // in the name-resolution business, and a strict parse cannot block on DNS.
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("not a numeric IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

WireError::WireError(Kind kind, const std::string& op, int sys_errno,
                     const std::string& peer)
    : std::runtime_error(compose_wire_message(op, sys_errno, peer)),
      kind_(kind),
      op_(op),
      errno_(sys_errno),
      peer_(peer) {}

Address Address::parse(const std::string& spec) {
  Address a;
  if (spec.rfind("unix:", 0) == 0) {
    a.unix_domain = true;
    a.host_or_path = spec.substr(5);
    if (a.host_or_path.empty()) {
      throw std::invalid_argument("empty unix socket path in: " + spec);
    }
    return a;
  }
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw std::invalid_argument(
        "address must be host:port or unix:/path, got: " + spec);
  }
  a.host_or_path = spec.substr(0, colon);
  unsigned long port = 0;
  for (std::size_t i = colon + 1; i < spec.size(); ++i) {
    const char c = spec[i];
    if (c < '0' || c > '9') {
      throw std::invalid_argument("bad port in address: " + spec);
    }
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) throw std::invalid_argument("port out of range: " + spec);
  }
  a.port = static_cast<std::uint16_t>(port);
  return a;
}

std::string Address::to_string() const {
  return unix_domain ? "unix:" + host_or_path
                     : host_or_path + ":" + std::to_string(port);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::set_timeouts(int recv_ms, int send_ms) {
  auto set = [&](int opt, const char* name, int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<decltype(tv.tv_usec)>((ms % 1000) * 1000);
    set_option(*this, SOL_SOCKET, opt, name, &tv, sizeof tv);
  };
  set(SO_RCVTIMEO, "SO_RCVTIMEO", recv_ms);
  set(SO_SNDTIMEO, "SO_SNDTIMEO", send_ms);
}

Socket dial(const std::string& spec) {
  const Address addr = Address::parse(spec);
  Socket s(::socket(addr.unix_domain ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno(WireError::Kind::kIo, "socket");
  int rc = 0;
  if (addr.unix_domain) {
    const sockaddr_un sa = make_unix_addr(addr.host_or_path);
    rc = ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  } else {
    const sockaddr_in sa = make_inet_addr(addr.host_or_path, addr.port);
    rc = ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  }
  if (rc != 0) throw_errno(WireError::Kind::kIo, "connect to " + spec);
  if (!addr.unix_domain) set_nodelay(s);
  return s;
}

Listener::Listener(const std::string& spec, int backlog)
    : addr_(Address::parse(spec)) {
  fd_ = Socket(::socket(addr_.unix_domain ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!fd_.valid()) throw_errno(WireError::Kind::kIo, "socket");
  int rc = 0;
  if (addr_.unix_domain) {
    const sockaddr_un sa = make_unix_addr(addr_.host_or_path);
    rc = ::bind(fd_.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  } else {
    const int one = 1;
    set_option(fd_, SOL_SOCKET, SO_REUSEADDR, "SO_REUSEADDR", &one, sizeof one);
    const sockaddr_in sa = make_inet_addr(addr_.host_or_path, addr_.port);
    rc = ::bind(fd_.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  }
  if (rc != 0) throw_errno(WireError::Kind::kIo, "bind " + spec);
  if (::listen(fd_.fd(), backlog) != 0) {
    throw_errno(WireError::Kind::kIo, "listen " + spec);
  }
  // Non-blocking accepts are load-bearing: many acceptor threads poll this
  // one fd, and a readable listener wakes them all.  Only one accept wins;
  // with a blocking fd the losers would park inside accept(2), never
  // re-check their stop flag, and hang Server::stop at join.  (The same
  // applies single-threaded when the pending connection resets between poll
  // and accept.)  Accepted connections do NOT inherit O_NONBLOCK.
  const int flags = ::fcntl(fd_.fd(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_.fd(), F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno(WireError::Kind::kIo, "fcntl O_NONBLOCK " + spec);
  }
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw_errno(WireError::Kind::kIo, "pipe2");
  }
  wake_rd_ = Socket(pipe_fds[0]);
  wake_wr_ = Socket(pipe_fds[1]);
  if (!addr_.unix_domain) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd_.fd(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      throw_errno(WireError::Kind::kIo, "getsockname");
    }
    bound_port_ = ntohs(bound.sin_port);
  }
}

Listener::~Listener() { close(); }

void Listener::close() {
  if (fd_.valid()) {
    fd_.close();
    // The daemon owns its socket file; remove it so the next bind succeeds.
    if (addr_.unix_domain) ::unlink(addr_.host_or_path.c_str());
  }
}

std::optional<Socket> Listener::accept(int timeout_ms) {
  pollfd pfd[2]{};
  pfd[0].fd = fd_.fd();
  pfd[0].events = POLLIN;
  pfd[1].fd = wake_rd_.fd();
  pfd[1].events = POLLIN;
  const int n = ::poll(pfd, 2, timeout_ms);
  if (n == 0) return std::nullopt;
  if (n < 0) {
    if (errno == EINTR) return std::nullopt;
    throw_errno(WireError::Kind::kIo, "poll");
  }
  if (pfd[1].revents != 0) return std::nullopt;  // woken
  Socket s(::accept(fd_.fd(), nullptr, nullptr));
  if (!s.valid()) {
    // The listener is non-blocking, so losing the accept race to another
    // acceptor thread (EAGAIN), a connection that reset between poll and
    // accept (ECONNABORTED), or a signal are all just timeouts; the caller
    // re-checks its stop flag and polls again.
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED ||
        errno == EINTR) {
      return std::nullopt;
    }
    throw_errno(WireError::Kind::kIo, "accept");
  }
  if (!addr_.unix_domain) set_nodelay(s);
  return s;
}

void Listener::wake() {
  const std::uint8_t byte = 1;
  // EAGAIN means the pipe is already full, hence already readable.
  ssize_t rc = 0;
  do {
    rc = ::write(wake_wr_.fd(), &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

std::string Listener::address() const {
  Address a = addr_;
  if (!a.unix_domain) a.port = bound_port_;
  return a.to_string();
}

FrameChannel::FrameChannel(Socket sock, std::size_t max_frame)
    : sock_(std::move(sock)), max_frame_(max_frame), peer_(peer_name(sock_)) {}

void FrameChannel::send(Op op, std::span<const std::uint8_t> body) {
  queue(op, {body});
  flush();
}

void FrameChannel::queue(
    Op op, std::initializer_list<std::span<const std::uint8_t>> parts) {
  std::size_t len = 1;  // the opcode byte
  for (const auto& part : parts) len += part.size();
  if (len > kMaxFrameBytes) {
    throw WireError(WireError::Kind::kProtocol, "frame too large to send");
  }
  for (int shift = 0; shift < 32; shift += 8) {
    batch_.push_back(static_cast<std::uint8_t>(len >> shift));
  }
  batch_.push_back(static_cast<std::uint8_t>(op));
  for (const auto& part : parts) {
    batch_.insert(batch_.end(), part.begin(), part.end());
  }
}

void FrameChannel::flush() {
  const std::uint8_t* data = batch_.data();
  std::size_t left = batch_.size();
  while (left > 0) {
    std::size_t want = left;
    if (faults_) {
      if (faults_->drop(FaultOp::kWrite)) {
        sock_.shutdown_both();
        throw WireError(WireError::Kind::kIo, "send (injected reset)",
                        ECONNRESET, peer_);
      }
      want = faults_->clamp(FaultOp::kWrite, left);
      if (want == 0) continue;  // injected EINTR: retry like the real one
    }
    const ssize_t n = ::send(sock_.fd(), data, want, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        throw WireError(WireError::Kind::kTimeout, "send timed out", errno,
                        peer_);
      }
      throw WireError(WireError::Kind::kIo, "send", errno, peer_);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
    bytes_out_ += static_cast<std::uint64_t>(n);
  }
  batch_.clear();
  // One huge segment must not pin its buffer for the connection's lifetime.
  if (batch_.capacity() > (std::size_t{4} << 20)) Bytes().swap(batch_);
}

bool FrameChannel::read_all(std::uint8_t* data, std::size_t len, bool eof_ok) {
  std::size_t got = 0;
  while (got < len) {
    std::size_t want = len - got;
    if (faults_) {
      if (faults_->drop(FaultOp::kRead)) {
        sock_.shutdown_both();
        throw WireError(WireError::Kind::kClosed, "recv (injected reset)",
                        ECONNRESET, peer_);
      }
      want = faults_->clamp(FaultOp::kRead, want);
      if (want == 0) continue;  // injected EINTR: retry like the real one
    }
    const ssize_t n = ::recv(sock_.fd(), data + got, want, 0);
    if (n == 0) {
      if (eof_ok && got == 0) return false;
      throw WireError(WireError::Kind::kClosed, "recv: peer closed mid-frame",
                      0, peer_);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireError(WireError::Kind::kTimeout, "recv timed out", errno,
                        peer_);
      }
      throw WireError(WireError::Kind::kIo, "recv", errno, peer_);
    }
    if (faults_) {
      faults_->corrupt(FaultOp::kRead, data + got, static_cast<std::size_t>(n));
    }
    got += static_cast<std::size_t>(n);
    bytes_in_ += static_cast<std::uint64_t>(n);
  }
  return true;
}

std::optional<Frame> FrameChannel::recv() {
  std::uint8_t head[5] = {};  // u32 length | u8 opcode
  if (!read_all(head, sizeof head, /*eof_ok=*/true)) return std::nullopt;
  const std::uint32_t len = static_cast<std::uint32_t>(head[0]) |
                            static_cast<std::uint32_t>(head[1]) << 8 |
                            static_cast<std::uint32_t>(head[2]) << 16 |
                            static_cast<std::uint32_t>(head[3]) << 24;
  // A frame is at least its opcode byte; the cap keeps a forged length from
  // turning into a giant allocation + a long blocking read.
  if (len == 0 || len > max_frame_) {
    throw WireError(WireError::Kind::kProtocol,
                    "bad frame length " + std::to_string(len));
  }
  Frame f;
  f.op = head[4];
  f.body.resize(len - 1);
  read_all(f.body.data(), f.body.size(), /*eof_ok=*/false);
  return f;
}

// ---- body serialization ---------------------------------------------------

void queue_fetch(FrameChannel& ch, std::uint32_t open_id,
                 std::span<const std::uint64_t> keys) {
  // Body room for the deltas: the cap minus the opcode byte, open_id, the
  // more flag and a count varint (a frame holds < 2^21 keys: 3 bytes).
  constexpr std::size_t kDeltaRoom = kMaxRequestFrameBytes - 1 - 4 - 1 - 3;
  std::size_t i = 0;
  std::uint64_t prev = 0;
  do {
    ByteWriter deltas;
    std::size_t n = 0;
    for (; i < keys.size(); ++i, ++n) {
      const std::uint64_t delta = keys[i] - prev;
      std::size_t len = 1;
      for (std::uint64_t v = delta; v >= 0x80; v >>= 7) ++len;
      if (deltas.buffer().size() + len > kDeltaRoom) break;
      deltas.varint(delta);
      prev = keys[i];
    }
    ByteWriter head;
    head.u32(open_id);
    head.u8(i < keys.size() ? 1 : 0);
    head.varint(n);
    ch.queue(Op::kFetch, {head.buffer(), deltas.buffer()});
  } while (i < keys.size());
}

void write_serve_stats(ByteWriter& w, const ServeStats& s) {
  w.varint(s.connections_accepted);
  w.varint(s.connections_active);
  w.varint(s.idle_reaped);
  w.varint(s.frames_in);
  w.varint(s.frames_out);
  w.varint(s.frames_by_opcode.size());
  for (std::uint64_t v : s.frames_by_opcode) w.varint(v);
  w.varint(s.wire_bytes_in);
  w.varint(s.wire_bytes_out);
  w.varint(s.payload_bytes_sent);
  w.varint(s.errors_sent);
  w.varint(s.quota_rejections);
  w.varint(s.physical_bytes_read);
  w.varint(s.physical_read_calls);
  w.varint(s.cache.hits);
  w.varint(s.cache.misses);
  w.varint(s.cache.evictions);
  w.varint(s.cache.resident_bytes);
  w.varint(s.cache.capacity_bytes);
  w.varint(s.cache.entries);
  w.varint(s.slow_client_evictions);
  w.varint(s.faults_injected);
}

ServeStats read_serve_stats(ByteReader& r) {
  ServeStats s;
  s.connections_accepted = r.varint();
  s.connections_active = r.varint();
  s.idle_reaped = r.varint();
  s.frames_in = r.varint();
  s.frames_out = r.varint();
  const std::uint64_t n_ops = r.varint();
  if (n_ops > 64) throw std::runtime_error("wire: absurd opcode-count table");
  s.frames_by_opcode.assign(n_ops, 0);
  for (std::uint64_t& v : s.frames_by_opcode) v = r.varint();
  s.frames_by_opcode.resize(kRequestOpCount + 1, 0);
  s.wire_bytes_in = r.varint();
  s.wire_bytes_out = r.varint();
  s.payload_bytes_sent = r.varint();
  s.errors_sent = r.varint();
  s.quota_rejections = r.varint();
  s.physical_bytes_read = r.varint();
  s.physical_read_calls = r.varint();
  s.cache.hits = r.varint();
  s.cache.misses = r.varint();
  s.cache.evictions = r.varint();
  s.cache.resident_bytes = r.varint();
  s.cache.capacity_bytes = r.varint();
  s.cache.entries = r.varint();
  s.slow_client_evictions = r.varint();
  s.faults_injected = r.varint();
  return s;
}

void write_error(ByteWriter& w, ErrCode code, const std::string& message,
                 std::uint64_t a, std::uint64_t b) {
  w.u16(static_cast<std::uint16_t>(code));
  w.string(message);
  w.varint(a);
  w.varint(b);
}

RemoteError read_error(ByteReader& r) {
  const auto code = static_cast<ErrCode>(r.u16());
  std::string message = r.string();
  const std::uint64_t a = r.varint();
  const std::uint64_t b = r.varint();
  return {code, message, a, b};
}

}  // namespace ipcomp::net
