// Socket front-end of the compile-and-serve daemon.
//
// ServeSocket wraps one listening endpoint — a Unix-domain socket path
// ("unix:/tmp/incflatd.sock") or a TCP loopback port ("tcp:127.0.0.1:7465",
// host optional) — and pumps poll(2) event loops: accept connections, slice
// the byte stream into frames (serve::FrameReader), answer each payload
// through ServerCore, and write back length-prefixed responses in request
// order per connection.
//
// Threading: one I/O loop per scheduler worker (ServeOptions::workers, so
// `incflatd --workers N` also sets the loop count).  Loop 0 runs on the
// caller of serve_forever() and owns the listening socket; it deals each
// accepted connection round-robin to a loop (itself included) through that
// loop's mailbox + self-pipe wakeup, and the connection stays on that loop
// for life.  A loop answers a `run` whose plan entry is already cached on
// its own thread (ServerCore::handle_cached_run) and writes the response
// itself — the hot path takes no thread hand-off at all.  Compiles, run
// misses that must build an entry, stats and tunes go to the scheduler's
// workers at their op's priority (ping and shutdown answer inline), and
// their responses come back to the owning loop through the same mailbox,
// so an I/O loop never compiles.  A connection
// that sends a malformed frame (oversized or garbled length prefix) is
// answered with one "protocol" error and closed — the stream offset can no
// longer be trusted; a frame that is merely malformed JSON fails only that
// request.
//
// The "shutdown" op stops every loop after its response drains, so tests
// and the CI smoke job can wind the daemon down cleanly from a client.
//
// Overload protection (SocketOptions): a connection cap, counted across all
// loops — connections past it are answered one "overloaded" (retriable)
// frame and closed — and a per-connection in-flight cap shedding pipelined
// requests beyond it.  EMFILE/ENFILE at accept time pauses accepting
// briefly instead of spinning.
//
// Graceful drain (request_drain, async-signal-safe): stop accepting, answer
// new requests "draining" (retriable) fail-fast, let in-flight work finish
// or deadline out, flush every owed response, then exit the loops — bounded
// by SocketOptions::drain_ms, after which surviving connections are severed
// and counted in DrainStats::forced_conns.  The drain is clean only if every
// loop drained clean; a connection handed to a loop that is already
// draining is closed, never leaked.
//
// Network chaos (SocketOptions::chaos, src/serve/chaos.h) perturbs the
// loops' syscall boundaries — dribbled reads, partial writes, stalls,
// mid-stream resets, accept-time drops — deterministically from a seed,
// with one stream per loop (loop i draws from chaos_seed mixed with i).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/chaos.h"
#include "src/serve/server.h"

namespace incflat::serve {

/// A parsed endpoint spec.
struct Endpoint {
  enum class Kind { Unix, Tcp } kind = Kind::Unix;
  std::string path;         // unix socket path
  std::string host;         // tcp host (loopback default)
  uint16_t port = 0;        // tcp port (0 = ephemeral, see bound_port)
};

/// Parse "unix:PATH" or "tcp:[HOST:]PORT"; throws IoError on bad specs.
Endpoint parse_endpoint(const std::string& spec);

/// Front-end knobs: admission control, drain bound, chaos injection.
struct SocketOptions {
  /// Maximum simultaneously served connections, summed over all loops; a
  /// connection accepted past the cap is answered one "overloaded"
  /// (retriable) frame and closed.  <= 0 = unlimited.
  int max_conns = 0;
  /// Maximum pipelined requests in flight per connection; requests past it
  /// are answered "overloaded" (retriable) in order, without being queued.
  /// <= 0 = unlimited.
  int max_inflight_per_conn = 0;
  /// Bound on a graceful drain (milliseconds): connections still alive
  /// this long after request_drain() are severed.
  double drain_ms = 5000;
  /// Network chaos plan (disabled by default); each loop draws its own
  /// stream from chaos_seed and its index.
  NetChaosSpec chaos;
  uint64_t chaos_seed = 0xc4a05eedULL;
};

/// Outcome of a graceful drain, for the daemon's exit report and the soak's
/// drained-clean assertion; summed over the loops.
struct DrainStats {
  bool requested = false;   // request_drain() was observed
  bool clean = false;       // every loop flushed + closed all in time
  int64_t forced_conns = 0; // connections severed at the drain deadline
};

class ServeSocket {
 public:
  /// Bind + listen on `ep` (IoError on failure).  Unix paths are unlinked
  /// first so a stale socket from a crashed daemon does not block restart.
  ServeSocket(ServerCore& core, const Endpoint& ep, SocketOptions sopts = {});
  ~ServeSocket();
  ServeSocket(const ServeSocket&) = delete;
  ServeSocket& operator=(const ServeSocket&) = delete;

  /// Run the poll loops (this thread is loop 0; the others get a thread
  /// each, joined before returning) until a client sends "shutdown",
  /// stop() is called, or a requested drain completes on every loop (or
  /// hits its drain_ms bound).
  void serve_forever();

  /// Ask every loop to exit; safe from any thread / signal context (writes
  /// one byte to each loop's self-pipe).
  void stop();

  /// Begin a graceful drain; safe from any thread / signal context (one
  /// atomic store + one self-pipe write per loop) — the SIGTERM/SIGINT
  /// handler of incflatd calls this.  The loops stop accepting, fail-fast
  /// new requests with "draining" (retriable), finish or deadline-out
  /// in-flight work, flush owed responses, and serve_forever returns.
  void request_drain();

  /// The following tallies are valid after serve_forever returned.
  /// Drain outcome, summed over the loops.
  DrainStats drain_stats() const;

  /// Lifetime chaos-event tallies summed over the loops (all zero when
  /// chaos is disabled).
  NetChaos::Counts chaos_counts() const;

  /// Connections each loop was handed over its lifetime, by loop index
  /// (over-cap rejections excluded).  Its size is the loop count.
  std::vector<int64_t> loop_connections() const;

  /// The bound TCP port (after an ephemeral bind), or 0 for unix sockets.
  uint16_t bound_port() const { return bound_port_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  uint16_t bound_port_ = 0;
};

/// Blocking client for the daemon's protocol: connect, exchange frames.
/// Used by incflat_client, the load generator and the smoke tests.
class ServeClient {
 public:
  /// Connect to `ep`; IoError on failure.  `timeout_ms` > 0 bounds both
  /// the connect and each call's wait for a response (poll-based); a
  /// breached bound throws IoError("timed out ...").  <= 0 = block forever
  /// (the original behaviour).
  explicit ServeClient(const Endpoint& ep, double timeout_ms = 0);
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Send one request payload (already-serialised JSON) and block for the
  /// response payload.  Throws IoError on transport failure or response
  /// timeout, ProtocolError on malformed response framing.
  std::string call_text(const std::string& payload);

  /// Convenience: serialise, call, parse.
  Json call(const Json& request);

 private:
  int fd_ = -1;
  double timeout_ms_ = 0;
  FrameReader reader_;
};

}  // namespace incflat::serve
