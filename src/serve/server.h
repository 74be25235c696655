// Transport-independent core of the compile-and-serve daemon.
//
// ServerCore::handle() answers one protocol request (src/serve/protocol.h)
// and is fully thread-safe.  The socket layer (src/serve/net.h) calls it
// from two kinds of threads: its I/O loops answer a `run` whose shape entry
// is already cached inline through handle_cached_run(), and JobScheduler
// workers answer everything else (compiles, run misses that must build an
// entry, tunes).  The serve bench and the tests call it from plain threads
// with no sockets at all — all of them exercise exactly the code the daemon
// runs.
//
// Request flow:
//
//   compile  -> PlanCache lookup under (program, mode, device); miss
//               compiles via exec::compile() and inserts.  The response
//               reports `cached`, the flattened-program content hash, and
//               the cold compile cost, so clients (and the bench's 50x
//               cold-vs-warm gate) can see amortization happen.
//   run      -> lookup under (program, mode, device, dataset shape); a miss
//               reuses the program-level entry's plan when one exists (the
//               compile-once promise: a new shape never re-flattens) and
//               builds a TieredRuntime for the shape.  Concurrent runs
//               against one entry are *batched*: the first requester
//               becomes the batch leader, drains every queued request for
//               the key, and executes them back-to-back through the
//               entry's single TieredRuntime — followers block on their
//               ticket.  One runtime means the tiered profile/specialize
//               machinery keeps working server-side: a hot key crosses its
//               stability window and subsequent batches replay the
//               specialized schedule.
//   tune     -> autotunes the flattened program's thresholds on its
//               training datasets and publishes them; runs with
//               "tuned":true select them.  The socket layer queues tune
//               jobs at Low priority so they never starve run traffic.
//   stats    -> cache / request / scheduler counters, plus a trace-layer
//               span flush (trace::flush_spans) so a traced daemon's event
//               buffer stays bounded over months of uptime.
//
// Fault injection (ServeOptions::faults, also INCFLAT_FAULTS in incflatd)
// routes every run through the fault-tolerant executor with a per-entry
// FaultPlan; an unrecoverable run answers ok=false/"run-failed" — a
// structured response, not a protocol error.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/gpusim/faults.h"
#include "src/serve/plan_cache.h"
#include "src/serve/protocol.h"
#include "src/serve/scheduler.h"
#include "src/support/json.h"
#include "src/support/sync.h"

namespace incflat {
class CancelToken;  // src/exec/runtime.h
}

namespace incflat::serve {

struct ServeOptions {
  size_t cache_bytes = size_t{64} << 20;
  int cache_shards = 8;
  /// Scheduler width; <= 0 picks JobScheduler::pick_width's default.  The
  /// socket layer runs as many I/O loops as the scheduler has workers.
  int workers = 0;
  /// Fault spec (parse_fault_spec syntax) applied to run execution.
  std::string faults;
  uint64_t fault_seed = 0xfa0175eedULL;
  /// Tiered-runtime knobs for served runs.
  bool specialize = true;
  int64_t hot_runs = 8;
  /// Default trial budget of a `tune` request (overridable per request).
  int tune_trials = 64;
  /// Queue timeout for Low-priority (tune) jobs submitted by the socket
  /// layer; 0 = none.  A request's own deadline_ms, when tighter, wins.
  double tune_queue_timeout_ms = 0;
  /// Per-priority-class bound on the scheduler's waiting queue; a submit
  /// against a full class is shed (answered "overloaded", retriable).
  /// Runs answered inline by an I/O loop never enter the queue, so the
  /// bound does not apply to them.  <= 0 = unbounded.
  int64_t queue_cap = 0;
};

/// Request tallies, reported by the stats op (a snapshot of the core's
/// relaxed atomic counters).
struct RequestStats {
  int64_t total = 0;
  int64_t compiles = 0;
  int64_t runs = 0;
  /// Runs answered on an I/O loop through handle_cached_run (a subset of
  /// `runs`): the ones that took neither the scheduler nor a done queue.
  int64_t inline_runs = 0;
  int64_t tunes = 0;
  int64_t stats_calls = 0;
  int64_t errors = 0;        // responses with ok=false
  int64_t batches = 0;       // run batches with more than one member
  int64_t batched_runs = 0;  // run requests answered as batch followers
  /// Requests answered "timeout" because their end-to-end deadline expired
  /// (at entry, waiting in a batch queue, or mid-run via the CancelToken).
  /// Scheduler-queue expiries are counted by SchedulerStats::expired.
  int64_t deadline_expired = 0;
};

class ServerCore {
 public:
  explicit ServerCore(ServeOptions opts = {});
  ~ServerCore();
  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Answer one request.  Thread-safe; never throws (failures become
  /// ok=false responses).  `cancel` (optional, not owned, must outlive the
  /// call) carries the request's end-to-end deadline: an already-expired
  /// token answers "timeout" (retriable) without any work, and run/tune
  /// requests check it cooperatively mid-execution — in the batch leader's
  /// drain before each ticket, between kernel launches inside the tiered
  /// runtime, and between tuner evaluations via the tuner's budget hook.
  Json handle(const Json& request, const CancelToken* cancel = nullptr);

  /// Parse + handle + serialise (compact).  Malformed JSON answers a
  /// structured "protocol" error; this never throws either.
  std::string handle_text(const std::string& payload);

  /// The I/O loops' fast path: answer a `run` request whose shape entry is
  /// already in the PlanCache on the calling thread, exactly as handle()
  /// would (same batching, deadline and error handling), counting the
  /// cache hit once.  Returns nullopt, having counted nothing, for
  /// anything else — another op, unusable run fields, a shape not yet
  /// seen, an entry not (or no longer) cached — and the caller submits the
  /// request to the scheduler instead.  It therefore never compiles and
  /// never builds an entry.
  std::optional<Json> handle_cached_run(const Json& request,
                                        const CancelToken* cancel = nullptr);

  /// Scheduler priority class for an op ("run"/"stats"/"ping"/"shutdown"
  /// High, "compile" Normal, "tune" Low): the socket layer's dispatch rule.
  static JobPriority priority_for(const std::string& op);

  PlanCache& cache() { return cache_; }
  JobScheduler& scheduler() { return sched_; }
  const ServeOptions& options() const { return opts_; }
  RequestStats request_stats() const;

  /// The socket front-end reports how many I/O loops serve this core
  /// (the stats op's scheduler.io_loops; 0 with no socket attached).
  void set_io_loops(int n) { io_loops_.store(n, std::memory_order_relaxed); }

 private:
  struct ServedPlan;
  struct Shape;

  /// The response envelope shared by handle() and handle_cached_run():
  /// expired-deadline short cut, exception barrier, id echo, tallies.
  /// The body is dispatch(), or with `hit` a run on that cached entry.
  Json answer(const Json& request, const CancelToken* cancel,
              ServedPlan* hit);

  Json dispatch(const Json& req, const CancelToken* cancel);
  Json do_compile(const Json& req);
  Json do_run(const Json& req, const CancelToken* cancel);
  Json do_tune(const Json& req, const CancelToken* cancel);
  Json do_stats();

  /// The key derivation both lookups share: the program key, plus for a
  /// run (non-empty `dataset`) "|" and the dataset's shape fingerprint.
  /// Shapes are memoised; a memo miss loads the shape from the benchmark
  /// (and memoises it) when `resolve`, else answers null.  Returns the
  /// shape (null for a program key) and writes the key to `*key`.
  std::shared_ptr<const Shape> entry_key(const std::string& benchmark,
                                         const std::string& mode,
                                         const std::string& device,
                                         const std::string& dataset,
                                         bool resolve, std::string* key);

  /// Find or build the (program, mode, device[, shape]) entry.  Empty
  /// `dataset` = compile-only entry.
  std::shared_ptr<ServedPlan> lookup_or_compile(const std::string& benchmark,
                                                const std::string& mode,
                                                const std::string& device,
                                                const std::string& dataset,
                                                bool* cached);

  /// Run `req` against its entry through the batch leader/follower
  /// protocol and finish the response (`cached` reports the lookup).
  Json run_entry(ServedPlan& entry, const Json& req,
                 const CancelToken* cancel, bool cached);

  /// Execute one run request against an entry (leader-only; entry state is
  /// exclusively owned while ServedPlan::leader_active).  `cancel` is the
  /// *ticket's* token, not the leader's: in a batch the leader runs other
  /// requests' work under their deadlines.
  Json run_one(ServedPlan& entry, const Json& req, const CancelToken* cancel);

  ServeOptions opts_;
  FaultSpec fspec_;
  PlanCache cache_;

  /// Published tuned thresholds per program key ("tuned":true runs).
  sync::Mutex tuned_mu_{"serve.tuned"};
  std::map<std::string, std::map<std::string, int64_t>> tuned_
      GUARDED_BY(tuned_mu_);

  /// Memoised dataset shapes ("bench|dataset" -> sizes + fingerprint), so
  /// warm-path run lookups never pay get_benchmark() just to compute the
  /// cache key.  Reader/writer: the warm path only reads; a miss upgrades
  /// to a writer.
  sync::SharedMutex shapes_mu_{"serve.shapes"};
  std::map<std::string, std::shared_ptr<const Shape>> shapes_
      GUARDED_BY(shapes_mu_);

  /// Live request tallies (RequestStats fields): relaxed atomics, so the
  /// I/O loops and workers answering requests never serialise on a lock
  /// just to count them.
  struct Counters {
    std::atomic<int64_t> total{0}, compiles{0}, runs{0}, inline_runs{0},
        tunes{0}, stats_calls{0}, errors{0}, batches{0}, batched_runs{0},
        deadline_expired{0};
  };
  Counters counts_;
  std::atomic<int> io_loops_{0};

  /// Declared LAST on purpose: the scheduler's destructor joins workers
  /// whose jobs call handle(), which touches every member above — member
  /// destruction runs in reverse declaration order, so the join must come
  /// first.
  JobScheduler sched_;
};

/// Cache key helpers (exposed for tests): "bench|mode|dev" for the program
/// entry, plus "|k=v,k=v" of the dataset's SizeEnv for a run entry.
std::string program_key(const std::string& benchmark, const std::string& mode,
                        const std::string& device);
std::string shape_fingerprint(const std::map<std::string, int64_t>& sizes);

namespace testing {
/// Misuse-injection hook for regression tests: a batch leader calls it once
/// per drained batch, *outside* the per-ticket exception barriers and with
/// the entry mutex released.  Tests install a throwing hook to reconstruct
/// the PR-7 "leader wedge" bug shape and assert the leader guard fails the
/// open tickets instead of wedging the key.  Null (one relaxed atomic load)
/// in production.
extern std::atomic<void (*)()> batch_abort_hook;
}  // namespace testing

}  // namespace incflat::serve
