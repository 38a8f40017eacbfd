// Progressive-retrieval daemon: the server side of net/wire.hpp.
//
// A Server listens on TCP or a Unix-domain socket and speaks the framed
// protocol with any number of clients over a pool of acceptor/handler
// threads.  Every OPEN reads through the shared ArchiveSet tier, so the
// cross-archive segment LRU cache and pooled deduplicated physical reads
// apply to remote clients exactly as to in-process sessions.  The server
// holds no planner and never decodes: clients plan locally and FETCH
// segments by key.  Per open it keeps only the archive handle and a
// SessionSource whose byte ledger meters the open's quota; a FETCH is
// validated against the index, admitted whole against that quota before
// any read, read cache-first, and streamed to the client still compressed
// in batched writes.  Exported files are read through FileSource, one
// checked pread per coalesced run, so a file truncated in place under the
// daemon fails the FETCH with a typed error instead of killing the process.
//
// Archives are exported by name (export_file / export_memory) before
// start(); OPEN resolves only exported names — a remote peer can never name
// an arbitrary server-side path.  Per-connection receive timeouts reap idle
// connections; stop() drains gracefully (stop accepting, shut down at once
// the connections that wait for their next frame, give replies in flight a
// grace window, then shut the stragglers down).
//
// Thread contract: internally-synchronized.  export_*/start/stop/stats may
// be called from any thread; handler threads only touch the internally-
// synchronized shared tier plus their own connection state.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/wire.hpp"
#include "serve/archive_set.hpp"
#include "util/sync.hpp"

namespace ipcomp::net {

struct ServerConfig {
  /// "host:port" (port 0 = ephemeral, see Server::address()) or "unix:/path".
  std::string listen = "127.0.0.1:0";
  /// Connection handler threads == max concurrent connections (each handler
  /// owns one connection at a time; excess connections queue in the kernel
  /// backlog).
  unsigned workers = 4;
  /// Per-connection receive timeout; an idle connection is reaped when it
  /// expires.  0 disables.
  int idle_timeout_ms = 30000;
  /// Per-connection send deadline: a client that stops draining its socket
  /// for this long mid-reply is evicted (counted in
  /// ServeStats::slow_client_evictions) instead of wedging a handler
  /// thread.  0 disables.
  int write_deadline_ms = 10000;
  /// Nonzero: every connection's wire I/O runs under a seeded random
  /// FaultPlan (send-side resets, torn writes, EINTR, delay spikes — never
  /// payload corruption), deterministically derived from seed ^ connection
  /// id.  Soak-testing knob (`ipc serve --fault-seed`); injected fault
  /// counts surface as ServeStats::faults_injected.
  std::uint64_t fault_seed = 0;
  /// Byte quota for each OPEN (one archive on one connection), charged per
  /// FETCH from the index sizes plus the open cost; 0 = unlimited.  A
  /// reconnect OPENs afresh and so starts a fresh ledger.
  std::uint64_t session_quota = 0;
  /// OPENs one connection may hold at once.
  std::size_t max_opens_per_connection = 8;
  /// Shared-tier sizing.  Exported files are read through FileSource.
  ServeOptions serve;
};

class Server {
 public:
  explicit Server(ServerConfig cfg = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Export the archive file at `path` under `name` (what clients OPEN).
  /// The file is opened lazily, on the first OPEN that names it.
  void export_file(const std::string& name, const std::string& path)
      IPCOMP_EXCLUDES(mu_);
  /// Export an in-memory archive blob under `name`.
  void export_memory(const std::string& name, Bytes blob)
      IPCOMP_EXCLUDES(mu_);

  /// Bind the listen address and spawn the handler pool.  Throws on bind
  /// failure (address in use, bad spec, ...).
  void start() IPCOMP_EXCLUDES(lifecycle_mu_);
  /// Graceful drain: stop accepting, shut down connections that wait for
  /// their next frame, wait up to `grace_ms` for replies in flight to
  /// finish, then force-close the rest and join the pool.
  /// Idempotent; concurrent callers (e.g. a user stop racing the destructor)
  /// serialize on the lifecycle lock and only one performs the drain/join.
  void stop(int grace_ms = 1000) IPCOMP_EXCLUDES(lifecycle_mu_, mu_);
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Dialable address — with TCP port 0 this is the port actually bound.
  /// Valid after start().
  std::string address() const;

  /// One server-wide snapshot: connection/frame/byte counters plus the
  /// shared tier's physical-read and cache stats (what STAT returns).
  ServeStats stats() const IPCOMP_EXCLUDES(mu_);

 private:
  struct Export {
    std::string path;  // file exports
    Bytes blob;        // memory exports
    bool in_memory = false;
  };
  struct Counters;
  struct ConnState;
  struct LiveConn;

  void worker_loop();
  void serve_connection(Socket sock);
  bool handle_frame(FrameChannel& ch, ConnState& st, const Frame& f);
  /// One FETCH frame: collect its keys into the connection's pending list
  /// and, after the chain's last frame, admit and stream the whole list.
  void fetch(FrameChannel& ch, ConnState& st, ByteReader& r);
  /// Resolve an exported name to an opened handle (opening on first use).
  /// Throws RemoteError(kUnknownArchive) for unknown names.
  std::shared_ptr<ArchiveHandle> open_export(const std::string& name)
      IPCOMP_EXCLUDES(mu_);

  /// Shut down every live connection's socket, or only those whose handler
  /// waits for its next frame.
  void shutdown_connections(bool waiting_only) IPCOMP_EXCLUDES(mu_);

  void send_frame(FrameChannel& ch, Op op, const ByteWriter& w);
  void send_error(FrameChannel& ch, ErrCode code, const std::string& message,
                  std::uint64_t a = 0, std::uint64_t b = 0);

  ServerConfig cfg_;
  ArchiveSet set_;
  /// Serializes start/stop so racing callers cannot both join/clear the same
  /// worker threads.  listener_ and workers_ are only mutated under it;
  /// handler threads read listener_ without it (start happens-before the
  /// spawn, stop joins them before tearing it down).  Never taken by handler
  /// threads, so stop() may hold it across the join without deadlock.
  mutable Mutex lifecycle_mu_;
  std::unique_ptr<Listener> listener_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> running_{false};
  std::unique_ptr<Counters> counters_;

  mutable Mutex mu_;
  std::unordered_map<std::string, Export> exports_ IPCOMP_GUARDED_BY(mu_);
  /// Opened handles by export name (ArchiveSet keys file handles by path;
  /// the export namespace is the server's).
  std::unordered_map<std::string, std::shared_ptr<ArchiveHandle>> opened_
      IPCOMP_GUARDED_BY(mu_);
  /// Live connections, for shutdown during drain.
  std::unordered_set<LiveConn*> live_conns_ IPCOMP_GUARDED_BY(mu_);
  std::uint64_t next_conn_id_ IPCOMP_GUARDED_BY(mu_) = 1;
};

}  // namespace ipcomp::net
