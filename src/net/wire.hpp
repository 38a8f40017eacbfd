// Wire protocol for the progressive-retrieval daemon.
//
// Frames are length-prefixed binary: `u32 length | u8 opcode | body`, where
// `length` counts the opcode byte plus the body, little-endian like every
// archive integer.  Bodies are built on io/bytes.hpp — the same varint
// writers/readers the archive container uses — so forged frames meet the
// same strict rejection discipline as forged archives: capped lengths,
// overflow-safe varints, exact-consumption body parses, unknown-opcode
// errors.  Nothing on either side of the connection trusts the peer.
//
// Conversation lifecycle (client frames -> server replies):
//   HELLO(version)        -> HELLO_OK(version)      must be the first frame
//   OPEN(name)            -> OPEN_OK(open_id, archive version/size/open
//                            cost, header bytes, segment table)
//   FETCH(open_id, more,  -> SEGMENT(key, payload) ... per key, ascending,
//         n, key deltas)     then FETCH_OK.  The client plans locally and
//                            names the segments it wants; the server checks
//                            every key against the index, admits the whole
//                            list against the open's byte quota, and
//                            streams the payloads: one round trip per
//                            refinement.  A list too long for one request
//                            frame spans several FETCH frames, each but the
//                            last with `more` set; the server answers once,
//                            after the last.
//   STAT()                -> STAT_OK(ServeStats)
//   CLOSE(open_id)        -> CLOSE_OK()
//   anything invalid      -> ERROR(code, message, a, b)
//
// The transport is TCP ("host:port") or a Unix-domain socket ("unix:/path").
// Every frame leaves in one write (header and body in one buffer), a reply
// stream in a few batched writes, and TCP sockets run with
// TCP_NODELAY — so no request/reply exchange waits on Nagle plus a delayed
// ACK.
// Socket/Listener/FrameChannel are thin RAII wrappers over POSIX sockets —
// the only place in the tree allowed to touch them (scripts/check.sh
// confines socket headers to src/net/).
//
// Thread contract: externally-synchronized — one Socket/FrameChannel belongs
// to one connection handler or one client.  Listener::accept may be called
// from many acceptor threads concurrently (accept(2) is atomic per
// connection).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/bytes.hpp"
#include "serve/cache.hpp"
#include "util/fault.hpp"

namespace ipcomp::net {

/// Protocol version exchanged in HELLO; bumped on any incompatible change.
/// v2: OPEN_OK gained the segment-checksum column, RESUME was added, and
/// STAT_OK grew the fault-tolerance counters.
/// v3: PLAN/PLAN_OK and plan tokens are gone; EXECUTE carries the epoch, the
/// Request and the client's price, and the server plans it in place.
/// v4: EXECUTE and RESUME are gone; FETCH names segment keys, and the server
/// holds no planner.
inline constexpr std::uint32_t kWireVersion = 4;

/// Hard cap on a frame a *client* accepts: segment payloads ride in single
/// frames, so this bounds the largest single segment (256 MiB is far above
/// any real base segment).
inline constexpr std::size_t kMaxFrameBytes = std::size_t{256} << 20;
/// Hard cap on a frame a *server* accepts: requests are names and key
/// lists (a longer list spans several FETCH frames), so the inbound cap is
/// much tighter — a forged length can make the server allocate at most this
/// much per frame.
inline constexpr std::size_t kMaxRequestFrameBytes = std::size_t{64} << 10;
/// Largest segment payload a SEGMENT frame can carry: the client-side frame
/// cap minus the opcode byte and the u64 segment key.  The server checks
/// every exported segment against this at OPEN time, so an archive that
/// cannot be streamed is a typed ERROR up front — never a connection dropped
/// mid-FETCH after the open was already charged.
inline constexpr std::size_t kMaxSegmentPayloadBytes = kMaxFrameBytes - 9;

enum class Op : std::uint8_t {
  // Client -> server.  0x03 (v2's PLAN), 0x04 (v3's EXECUTE) and 0x07 (v3's
  // RESUME) are retired: a v4 server answers them with UNKNOWN_OPCODE.
  kHello = 0x01,
  kOpen = 0x02,
  kStat = 0x05,
  kClose = 0x06,
  kFetch = 0x08,
  // Server -> client.  0x85 (EXECUTE_OK) and 0x88 (RESUME_OK) are retired.
  kHelloOk = 0x81,
  kOpenOk = 0x82,
  kSegment = 0x84,
  kStatOk = 0x86,
  kCloseOk = 0x87,
  kFetchOk = 0x89,
  kError = 0xFF,
};

/// Request opcodes in stats-slot order (ServeStats::frames_by_opcode).
inline constexpr std::array<Op, 5> kRequestOps = {
    Op::kHello, Op::kOpen, Op::kFetch, Op::kStat, Op::kClose};
inline constexpr std::size_t kRequestOpCount = kRequestOps.size();
/// Stats slot for a raw request opcode: its index in kRequestOps,
/// kRequestOpCount for anything unknown (the retired opcodes included).
inline std::size_t op_slot(std::uint8_t raw) {
  for (std::size_t i = 0; i < kRequestOpCount; ++i) {
    if (raw == static_cast<std::uint8_t>(kRequestOps[i])) return i;
  }
  return kRequestOpCount;
}

enum class ErrCode : std::uint16_t {
  kBadFrame = 1,       // malformed frame or body (connection closes)
  kBadVersion = 2,     // HELLO version mismatch (connection closes)
  kBadSequence = 3,    // frame before HELLO, an unknown open_id, or another
                       // frame inside an unfinished FETCH
  kUnknownOpcode = 4,  // opcode the server does not speak (connection stays)
  kUnknownArchive = 5, // OPEN of a name the server does not export
  kBadRequest = 6,     // FETCH key not in the index, or keys not ascending
  // 7 (v3's stale-plan error), 8 (v2's unknown-token error) and 12 (v3's
  // price-drift error) are retired with the server-side planner; never
  // reused.
  kQuotaExceeded = 9,  // FETCH admission failed; a = needed, b = remaining
  kTooManyArchives = 10,  // per-connection open limit reached
  kInternal = 11,      // I/O or other server-side failure
};

/// One received frame: opcode byte (possibly unknown) + body bytes.
struct Frame {
  std::uint8_t op = 0;
  Bytes body;

  bool is(Op o) const { return op == static_cast<std::uint8_t>(o); }
};

/// Peer closed or timed out in the middle of a frame, or sent one that
/// violates the framing rules (zero/oversized length).  Distinct from
/// std::runtime_error so handlers can reap quietly instead of reporting.
///
/// Errors raised by FrameChannel carry context — the operation name, the
/// saved errno (with its strerror text folded into what()), and the peer
/// address — so a failure in a multi-client log reads "recv from
/// 10.0.0.7:51234: Connection reset by peer", not just "short read".
class WireError : public std::runtime_error {
 public:
  enum class Kind { kProtocol, kTimeout, kClosed, kIo };
  WireError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  /// Full-context form: `op` names the failing operation ("send", "recv",
  /// "connect to ..."), `sys_errno` is the saved errno (0 = none), `peer`
  /// the remote address label.  what() composes all three.
  WireError(Kind kind, const std::string& op, int sys_errno,
            const std::string& peer);
  Kind kind() const { return kind_; }
  /// The failing operation, empty for context-free errors.
  const std::string& op() const { return op_; }
  /// Saved errno at the failure point; 0 when not errno-driven.
  int sys_errno() const { return errno_; }
  /// Peer address label ("ip:port", "unix:/path"), empty when unknown.
  const std::string& peer() const { return peer_; }

 private:
  Kind kind_;
  std::string op_;
  int errno_ = 0;
  std::string peer_;
};

/// The ERROR frame a server explains a rejection with; client-side it is
/// rethrown as a typed exception (QuotaExceeded, logic_error, ...).
class RemoteError : public std::runtime_error {
 public:
  RemoteError(ErrCode code, const std::string& message, std::uint64_t a,
              std::uint64_t b)
      : std::runtime_error(message), code_(code), a_(a), b_(b) {}
  ErrCode code() const { return code_; }
  std::uint64_t a() const { return a_; }
  std::uint64_t b() const { return b_; }

 private:
  ErrCode code_;
  std::uint64_t a_;
  std::uint64_t b_;
};

/// Parsed listen/dial address: "unix:/path" or "host:port" (numeric IPv4 or
/// a resolvable hostname; port 0 asks the kernel for an ephemeral port).
struct Address {
  bool unix_domain = false;
  std::string host_or_path;
  std::uint16_t port = 0;

  static Address parse(const std::string& spec);
  std::string to_string() const;
};

/// RAII owner of one connected socket descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();
  /// Half-close both directions without releasing the descriptor: any
  /// blocked recv on another thread returns immediately (drain/reap path).
  void shutdown_both();
  /// 0 disables the corresponding timeout.  Throws WireError(kIo) when the
  /// kernel refuses either option: a socket silently left without its
  /// timeouts is how a handler hangs.
  void set_timeouts(int recv_ms, int send_ms);

 private:
  int fd_ = -1;
};

/// Connect to `spec` ("host:port" or "unix:/path").  TCP connections get
/// TCP_NODELAY.  Throws on failure.
Socket dial(const std::string& spec);

/// Bound + listening server socket.
class Listener {
 public:
  explicit Listener(const std::string& spec, int backlog = 64);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accept one connection, waiting at most `timeout_ms`; std::nullopt on
  /// timeout or once wake() ran (acceptor loops poll their stop flag between
  /// waits).  Accepted TCP connections get TCP_NODELAY.
  std::optional<Socket> accept(int timeout_ms);

  /// Ends every accept() wait now and makes every later one return at once:
  /// a stopping server wakes its acceptors instead of waiting out their poll
  /// timeouts.  Safe to call beside accept() on other threads.
  void wake();

  /// The dialable address — for TCP with port 0 this reports the port the
  /// kernel actually bound.
  std::string address() const;
  std::uint16_t port() const { return bound_port_; }
  void close();

 private:
  Socket fd_;
  // Self-pipe polled beside fd_: wake() writes one byte that is never read,
  // so the read end stays readable.
  Socket wake_rd_, wake_wr_;
  Address addr_;
  std::uint16_t bound_port_ = 0;
};

/// Frame I/O over one socket: length-prefixed send/recv with a hard cap on
/// accepted frame length, plus wire byte counters for the stats surface.
/// The peer address is captured at construction and folded into every
/// WireError this channel throws.
class FrameChannel {
 public:
  FrameChannel(Socket sock, std::size_t max_frame);

  /// Send one frame (blocking, complete) as one contiguous write, behind
  /// anything queue()d: a request never leaves as a small header segment
  /// waiting on the peer's ACK.  Throws WireError on failure.
  void send(Op op, std::span<const std::uint8_t> body);
  void send(Op op, const ByteWriter& w) { send(op, {w.buffer().data(), w.buffer().size()}); }

  /// Append one frame, whose body is the concatenation of `parts`, to the
  /// outgoing batch; nothing reaches the socket until flush().  A reply
  /// stream queues its frames and flushes every few hundred KiB, paying a
  /// few large writes instead of one syscall per frame.
  void queue(Op op, std::initializer_list<std::span<const std::uint8_t>> parts);
  /// Bytes queued since the last flush().
  std::size_t queued() const { return batch_.size(); }
  /// Write every queued frame (blocking, complete): the one raw-write path,
  /// resuming short writes and EINTR, consulting the fault injector once
  /// per attempt.
  void flush();

  /// Receive one frame: the 4-byte length and the opcode in one read, then
  /// the body straight into Frame::body.  std::nullopt on clean EOF at a
  /// frame boundary; WireError(kTimeout) when the socket's receive timeout
  /// expires, WireError(kProtocol) on a zero/oversized length,
  /// WireError(kClosed) on EOF mid-frame.
  std::optional<Frame> recv();

  /// Install a fault injector consulted around every raw socket I/O
  /// (util/fault.hpp); nullptr uninstalls.  This is the wire seam of the
  /// deterministic fault-injection harness — torn reads/writes, EINTR
  /// storms, bit flips and resets all enter here.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) {
    faults_ = std::move(injector);
  }

  Socket& socket() { return sock_; }
  /// Peer address label this channel reports in errors.
  const std::string& peer() const { return peer_; }
  std::uint64_t bytes_in() const { return bytes_in_; }
  std::uint64_t bytes_out() const { return bytes_out_; }

 private:
  /// Reads exactly `len` bytes; false only on EOF before the first byte when
  /// `eof_ok` (a clean disconnect at a frame boundary).
  bool read_all(std::uint8_t* data, std::size_t len, bool eof_ok);

  Socket sock_;
  std::size_t max_frame_;
  std::string peer_;
  std::shared_ptr<FaultInjector> faults_;
  Bytes batch_;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
};

// ---- body serialization ---------------------------------------------------

/// FETCH body: `u32 open_id | u8 more | varint n | n varint key deltas`.
/// Keys ascend strictly across the whole FETCH: its first key is coded as
/// the delta from 0, every later one as the delta (>= 1) from the key before
/// it, also across frames.  Queues (does not flush) the FETCH frames for the
/// ascending `keys` on `ch`, as many as the request-frame cap needs and at
/// least one, every frame but the last with `more` set.
void queue_fetch(FrameChannel& ch, std::uint32_t open_id,
                 std::span<const std::uint64_t> keys);

/// Server-wide counters returned by STAT and printed by the CLI.
struct ServeStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t idle_reaped = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  /// Per request opcode (op_slot order: HELLO, OPEN, FETCH, STAT, CLOSE,
  /// unknown).
  std::vector<std::uint64_t> frames_by_opcode =
      std::vector<std::uint64_t>(kRequestOpCount + 1, 0);
  std::uint64_t wire_bytes_in = 0;
  std::uint64_t wire_bytes_out = 0;
  /// Logical volume: segment payload bytes streamed to clients.
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t quota_rejections = 0;
  /// Connections dropped because the peer could not drain a reply within
  /// the per-connection write deadline (slow-client eviction).
  std::uint64_t slow_client_evictions = 0;
  /// Wire faults fired by the server's own --fault-seed injector (0 unless
  /// fault injection is enabled).
  std::uint64_t faults_injected = 0;
  /// Physical volume: what the opened archives' base sources actually read.
  std::uint64_t physical_bytes_read = 0;
  std::uint64_t physical_read_calls = 0;
  /// Shared cross-archive segment cache.
  CacheStats cache;
};

void write_serve_stats(ByteWriter& w, const ServeStats& s);
ServeStats read_serve_stats(ByteReader& r);

/// ERROR frame body helpers.
void write_error(ByteWriter& w, ErrCode code, const std::string& message,
                 std::uint64_t a, std::uint64_t b);
RemoteError read_error(ByteReader& r);

}  // namespace ipcomp::net
