#include "src/serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <sstream>
#include <utility>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/autotune/journal.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/exec/runtime.h"
#include "src/flatten/flatten.h"
#include "src/gpusim/device.h"
#include "src/ir/print.h"
#include "src/support/error.h"
#include "src/support/trace.h"

namespace incflat::serve {

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hex64(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

DeviceProfile device_from_name(const std::string& name) {
  if (name.empty() || name == "k40") return device_k40();
  if (name == "vega64") return device_vega64();
  if (name == "multicore") return device_multicore();
  throw CompilerError("unknown device '" + name +
                      "' (k40, vega64, multicore)");
}

/// Resident-byte estimate of a served entry.  Plans are in-memory object
/// graphs, not flat buffers, so this is an approximation — what matters for
/// the budget is that it is monotone in plan size and stable per key.
size_t approx_entry_bytes(const Compiled& c, bool has_runtime) {
  size_t b = 4096;  // entry fixed cost (key, runtime scaffolding)
  const KernelPlan& p = *c.plan;
  b += p.arena.size() * 48;
  b += p.kernels.size() * 256;
  b += p.nodes.size() * 64;
  b += p.guards.size() * 128;
  for (const auto& t : p.thresholds) b += t.size() + 32;
  // A run entry's TieredRuntime keeps a per-shape dataset cache (one priced
  // cost row per arena node) plus profile state.
  if (has_runtime) b += p.arena.size() * 16 + 1024;
  return b;
}

const std::string& req_string(const Json& req, const std::string& key) {
  const Json* v = req.find(key);
  if (!v || !v->is_string())
    throw CompilerError("request field '" + key + "' must be a string");
  return v->as_string();
}

std::string opt_string(const Json& req, const std::string& key,
                       const std::string& dflt) {
  const Json* v = req.find(key);
  if (!v) return dflt;
  if (!v->is_string())
    throw CompilerError("request field '" + key + "' must be a string");
  return v->as_string();
}

/// Largest threshold a request may set: the value the fault runtime itself
/// forces to disable a version, far above any Par a dataset produces.
constexpr int64_t kMaxThreshold = int64_t{1} << 62;
/// Upper bound on a tune request's trial budget.
constexpr int64_t kMaxTuneTrials = 100000;

/// A request number that must be an integer in [lo, hi].  Anything else
/// (not a number, fractional, out of range) is a bad request — never an
/// undefined double -> integer conversion.  lo and hi are exact doubles.
int64_t req_int(const Json& v, const std::string& what, int64_t lo,
                int64_t hi) {
  if (v.is_number()) {
    const double d = v.as_double();
    if (d >= static_cast<double>(lo) && d <= static_cast<double>(hi) &&
        d == std::floor(d))
      return static_cast<int64_t>(d);
  }
  throw CompilerError(what + " must be an integer in [" + std::to_string(lo) +
                      ", " + std::to_string(hi) + "]");
}

void bump(std::atomic<int64_t>& c) {
  c.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::string program_key(const std::string& benchmark, const std::string& mode,
                        const std::string& device) {
  return benchmark + "|" + mode + "|" + device;
}

std::string shape_fingerprint(const std::map<std::string, int64_t>& sizes) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [k, v] : sizes) {
    if (!first) os << ",";
    first = false;
    os << k << "=" << v;
  }
  return os.str();
}

/// A memoised dataset shape: the sizes a run entry's runtime prices, and
/// their fingerprint, the tail of the entry's cache key.
struct ServerCore::Shape {
  SizeEnv sizes;
  std::string fingerprint;
};

/// One cache entry: the compiled plan plus — for shape-keyed run entries —
/// the tiered runtime and the batch queue.  The runtime is single-threaded
/// by design; exclusivity is the batch-leader protocol below, not a lock
/// held across execution (followers must be able to enqueue mid-batch).
struct ServerCore::ServedPlan : CacheValue {
  std::string key;
  std::string benchmark, mode, device;
  uint64_t program_hash = 0;
  Compiled compiled;
  DeviceProfile dev;
  double compile_us = 0;    // cold cost; 0 when the plan was reused
  bool plan_reused = false; // run entry adopted the program entry's plan

  // Run-entry state.
  SizeEnv sizes;
  std::unique_ptr<TieredRuntime> rt;
  FaultPlan faults;

  // Ticket fields are deliberately *not* GUARDED_BY(mu): ownership is
  // phased, not locked.  Until done flips, only the leader writes (under
  // mu); once done, only the waiting follower reads — the leader never
  // touches a finished ticket again.  The flip itself happens under mu.
  struct Ticket {
    Json req;
    Json resp;
    // The requester's deadline token (not owned; the requester's handle()
    // stack frame outlives the ticket — follower blocks on cv, leader
    // drains its own ticket).  The leader honors it per ticket: an expired
    // follower is answered "timeout" without running, and a live one's
    // token rides into the tiered runtime for mid-run cancellation.
    const CancelToken* cancel = nullptr;
    int batch = 0;  // members of the batch that answered this ticket
    bool done = false;
  };
  sync::Mutex mu{"serve.entry"};
  sync::CondVar cv;
  std::deque<std::shared_ptr<Ticket>> pending GUARDED_BY(mu);
  bool leader_active GUARDED_BY(mu) = false;
};

namespace testing {
std::atomic<void (*)()> batch_abort_hook{nullptr};
}  // namespace testing

ServerCore::ServerCore(ServeOptions opts)
    : opts_(std::move(opts)),
      fspec_(parse_fault_spec(opts_.faults)),
      cache_(opts_.cache_bytes, opts_.cache_shards),
      sched_(opts_.workers, /*promote_after_ms=*/1000.0, opts_.queue_cap) {}

ServerCore::~ServerCore() = default;

JobPriority ServerCore::priority_for(const std::string& op) {
  if (op == "compile") return JobPriority::Normal;
  if (op == "tune") return JobPriority::Low;
  // run / stats / ping / shutdown: latency-sensitive client traffic.
  return JobPriority::High;
}

RequestStats ServerCore::request_stats() const {
  const auto get = [](const std::atomic<int64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  RequestStats rs;
  rs.total = get(counts_.total);
  rs.compiles = get(counts_.compiles);
  rs.runs = get(counts_.runs);
  rs.inline_runs = get(counts_.inline_runs);
  rs.tunes = get(counts_.tunes);
  rs.stats_calls = get(counts_.stats_calls);
  rs.errors = get(counts_.errors);
  rs.batches = get(counts_.batches);
  rs.batched_runs = get(counts_.batched_runs);
  rs.deadline_expired = get(counts_.deadline_expired);
  return rs;
}

Json ServerCore::answer(const Json& request, const CancelToken* cancel,
                        ServedPlan* hit) {
  Json resp;
  if (cancel && cancel->expired()) {
    // The deadline passed before any work started (typically: the job sat
    // in the scheduler queue, or the leader got to this ticket late).
    // Answer without touching the cache or a runtime.
    resp = retriable_error(code::kTimeout,
                           "deadline expired before the request ran");
    echo_id(request, resp);
    bump(counts_.total);
    bump(counts_.errors);
    bump(counts_.deadline_expired);
    if (trace::enabled()) trace::count("serve.deadline_expired");
    return resp;
  }
  try {
    if (hit) {
      bump(counts_.runs);
      resp = run_entry(*hit, request, cancel, /*cached=*/true);
    } else {
      resp = dispatch(request, cancel);
    }
  } catch (const JsonParseError& e) {
    resp = error_response(code::kBadRequest, e.what());
  } catch (const CompilerError& e) {
    resp = error_response(code::kBadRequest, e.what());
  } catch (const EvalError& e) {
    resp = error_response(code::kBadRequest, e.what());
  } catch (const std::exception& e) {
    resp = error_response(code::kInternal, e.what());
  }
  echo_id(request, resp);
  bump(counts_.total);
  const Json* ok = resp.find("ok");
  if (!ok || !ok->is_bool() || !ok->as_bool()) bump(counts_.errors);
  return resp;
}

std::string ServerCore::handle_text(const std::string& payload) {
  Json req;
  try {
    req = Json::parse(payload);
  } catch (const JsonParseError& e) {
    bump(counts_.total);
    bump(counts_.errors);
    return error_response(code::kBadRequest,
                          std::string("malformed request json: ") + e.what())
        .str(-1);
  }
  return handle(req).str(-1);
}

Json ServerCore::handle(const Json& request, const CancelToken* cancel) {
  return answer(request, cancel, nullptr);
}

std::optional<Json> ServerCore::handle_cached_run(const Json& request,
                                                  const CancelToken* cancel) {
  // Only a run whose fields are well-formed strings can hit; anything else
  // is left to the ordinary path, which also produces its error response.
  if (!request.is_object()) return std::nullopt;
  static const std::string kMode = "incremental", kDevice = "k40";
  const auto field = [&](const char* name,
                         const std::string* dflt) -> const std::string* {
    const Json* v = request.find(name);
    if (!v) return dflt;
    return v->is_string() ? &v->as_string() : nullptr;
  };
  const std::string* op = field("op", nullptr);
  const std::string* bench = field("benchmark", nullptr);
  const std::string* dataset = field("dataset", nullptr);
  const std::string* mode = field("mode", &kMode);
  const std::string* device = field("device", &kDevice);
  if (!op || *op != "run" || !bench || !dataset || dataset->empty() ||
      !mode || !device)
    return std::nullopt;
  std::string key;
  if (!entry_key(*bench, *mode, *device, *dataset, /*resolve=*/false, &key))
    return std::nullopt;
  // Counts the hit; a miss stays uncounted for the scheduled lookup.  The
  // shared_ptr pins the entry, so an eviction after this point is harmless.
  auto entry = std::static_pointer_cast<ServedPlan>(cache_.find_hit(key));
  if (!entry) return std::nullopt;
  bump(counts_.inline_runs);
  return answer(request, cancel, entry.get());
}

Json ServerCore::dispatch(const Json& req, const CancelToken* cancel) {
  if (!req.is_object())
    return error_response(code::kBadRequest, "request must be a json object");
  const Json* opv = req.find("op");
  if (!opv || !opv->is_string())
    return error_response(code::kBadRequest, "missing string field 'op'");
  const std::string& op = opv->as_string();

  if (op == "compile") return do_compile(req);
  if (op == "run") return do_run(req, cancel);
  if (op == "tune") return do_tune(req, cancel);
  if (op == "stats") return do_stats();
  if (op == "ping") {
    Json r = Json::object();
    r.set("ok", true);
    r.set("pong", true);
    return r;
  }
  if (op == "shutdown") {
    // The core has no event loop to stop; the socket layer watches for this
    // op and winds down after writing the acknowledgement.
    Json r = Json::object();
    r.set("ok", true);
    r.set("shutdown", true);
    return r;
  }
  return error_response(code::kUnknownOp, "unknown op '" + op + "'");
}

std::shared_ptr<const ServerCore::Shape> ServerCore::entry_key(
    const std::string& benchmark, const std::string& mode,
    const std::string& device, const std::string& dataset, bool resolve,
    std::string* key) {
  *key = program_key(benchmark, mode, device);
  if (dataset.empty()) return nullptr;
  // The shape fingerprint needs the dataset's SizeEnv, which lives on the
  // Benchmark; memoise it so warm-path lookups skip get_benchmark().
  std::string memo_key = benchmark;
  memo_key += '|';
  memo_key += dataset;
  std::shared_ptr<const Shape> shape;
  {
    sync::ReaderMutexLock lk(shapes_mu_);
    auto it = shapes_.find(memo_key);
    if (it != shapes_.end()) shape = it->second;
  }
  if (!shape) {
    if (!resolve) return nullptr;
    Benchmark b = get_benchmark(benchmark);
    const BenchDataset* found = nullptr;
    for (const auto& d : b.datasets)
      if (d.name == dataset) found = &d;
    if (!found)
      for (const auto& d : b.tuning)
        if (d.name == dataset) found = &d;
    if (!found) {
      std::string msg = "benchmark '";
      msg += benchmark;
      msg += "' has no dataset '";
      msg += dataset;
      msg += "'";
      throw CompilerError(msg);
    }
    auto fresh = std::make_shared<Shape>();
    fresh->sizes = found->sizes;
    fresh->fingerprint = shape_fingerprint(fresh->sizes);
    sync::WriterMutexLock lk(shapes_mu_);
    shape = shapes_.emplace(memo_key, std::move(fresh)).first->second;
  }
  *key += '|';
  *key += shape->fingerprint;
  return shape;
}

std::shared_ptr<ServerCore::ServedPlan> ServerCore::lookup_or_compile(
    const std::string& benchmark, const std::string& mode,
    const std::string& device, const std::string& dataset, bool* cached) {
  const bool is_run = !dataset.empty();
  std::string key;
  const std::shared_ptr<const Shape> shape =
      entry_key(benchmark, mode, device, dataset, /*resolve=*/true, &key);
  const std::string pkey = program_key(benchmark, mode, device);

  if (auto hit = cache_.find(key)) {
    *cached = true;
    return std::static_pointer_cast<ServedPlan>(hit);
  }
  *cached = false;

  auto sp = std::make_shared<ServedPlan>();
  sp->key = key;
  sp->benchmark = benchmark;
  sp->mode = mode;
  sp->device = device;
  sp->dev = device_from_name(device);

  // A run miss first tries to adopt the program-level entry's plan — the
  // compile-once promise: a new dataset shape costs a runtime, never a
  // re-flatten.  The probe is uncounted (it is bookkeeping, not traffic).
  std::shared_ptr<ServedPlan> base;
  if (is_run)
    base = std::static_pointer_cast<ServedPlan>(cache_.find(pkey, false));
  if (base) {
    sp->compiled = base->compiled;
    sp->program_hash = base->program_hash;
    sp->plan_reused = true;
  } else {
    Benchmark b = get_benchmark(benchmark);
    const FlattenMode m = mode_from_name(mode);
    const double t0 = now_us();
    {
      trace::Span span("serve.compile", "serve");
      sp->compiled = compile(b.program, m);
    }
    sp->compile_us = now_us() - t0;
    const std::string canon = pretty(sp->compiled.flat.program);
    sp->program_hash = journal_hash(canon.data(), canon.size());
    if (is_run) {
      // Also publish the program-level entry so future shapes reuse it.
      auto pe = std::make_shared<ServedPlan>();
      pe->key = pkey;
      pe->benchmark = benchmark;
      pe->mode = mode;
      pe->device = device;
      pe->dev = sp->dev;
      pe->compiled = sp->compiled;
      pe->program_hash = sp->program_hash;
      pe->compile_us = sp->compile_us;
      cache_.insert(pkey, pe, approx_entry_bytes(pe->compiled, false));
    }
  }

  if (is_run) {
    sp->sizes = shape->sizes;
    TierPolicy tp;
    tp.specialize = opts_.specialize;
    tp.hot_runs = opts_.hot_runs;
    sp->rt = std::make_unique<TieredRuntime>(sp->dev, *sp->compiled.plan, tp);
    // Per-entry fault stream, decorrelated across keys by the key hash so
    // two entries do not fault in lockstep.
    sp->faults = FaultPlan(
        fspec_, opts_.fault_seed ^ journal_hash(key.data(), key.size()));
  }

  // Insert; on a compile race the first entry wins and we adopt it (one
  // runtime and one batch queue per key).
  auto winner =
      cache_.insert(key, sp, approx_entry_bytes(sp->compiled, is_run));
  return std::static_pointer_cast<ServedPlan>(winner);
}

Json ServerCore::do_compile(const Json& req) {
  bump(counts_.compiles);
  const std::string& bench = req_string(req, "benchmark");
  const std::string mode = opt_string(req, "mode", "incremental");
  const std::string device = opt_string(req, "device", "k40");
  mode_from_name(mode);  // validate before keying

  bool cached = false;
  auto entry = lookup_or_compile(bench, mode, device, "", &cached);

  Json r = Json::object();
  r.set("ok", true);
  r.set("cached", cached);
  r.set("key", entry->key);
  r.set("program_hash", hex64(entry->program_hash));
  r.set("compile_us", cached ? 0.0 : entry->compile_us);
  const KernelPlan& p = *entry->compiled.plan;
  r.set("kernels", p.kernels.size());
  r.set("guards", p.guards.size());
  r.set("thresholds", p.thresholds.size());
  return r;
}

Json ServerCore::run_one(ServedPlan& entry, const Json& req,
                         const CancelToken* cancel) {
  ThresholdEnv thr;
  if (const Json* tv = req.find("thresholds")) {
    if (!tv->is_object())
      throw CompilerError("'thresholds' must be an object");
    for (const auto& info : entry.compiled.flat.thresholds.all()) {
      if (const Json* v = tv->find(info.name))
        thr.values[info.name] =
            req_int(*v, "threshold '" + info.name + "'", 0, kMaxThreshold);
    }
  } else if (const Json* tuned = req.find("tuned");
             tuned && tuned->is_bool() && tuned->as_bool()) {
    const std::string pkey =
        program_key(entry.benchmark, entry.mode, entry.device);
    sync::MutexLock lk(tuned_mu_);
    auto it = tuned_.find(pkey);
    if (it == tuned_.end())
      throw CompilerError("no tuned thresholds published for " + pkey +
                          " (tune first)");
    thr.values = it->second;
  }

  TieredOutcome t;
  {
    trace::Span span("serve.run", "serve");
    t = entry.rt->run(entry.sizes, thr, entry.faults, cancel);
  }

  if (t.run.cancelled) {
    // Expired mid-execution: a scheduling outcome, answered retriable —
    // the request itself was fine, the daemon just ran out of its budget.
    bump(counts_.deadline_expired);
    if (trace::enabled()) trace::count("serve.deadline_expired");
    return retriable_error(code::kTimeout,
                           "deadline expired during execution");
  }

  Json r = Json::object();
  r.set("ok", t.run.ok);
  r.set("time_us", t.run.time_us);
  r.set("overhead_us", t.run.overhead_us);
  r.set("estimate_us", t.run.estimate.time_us);
  r.set("kernel_launches", t.run.estimate.kernel_launches);
  r.set("tier", t.specialized ? "specialized" : "tree");
  if (t.deopted) {
    r.set("deopted", true);
    r.set("deopt_reason", t.deopt_reason);
  }
  if (t.run.faults > 0) {
    r.set("faults", t.run.faults);
    r.set("retries", t.run.retries);
    r.set("degradations", t.run.degradations);
  }
  if (!t.run.ok) {
    r.set("code", code::kRunFailed);
    r.set("error", t.run.error ? t.run.error->message : "run failed");
  }
  return r;
}

Json ServerCore::do_run(const Json& req, const CancelToken* cancel) {
  bump(counts_.runs);
  const std::string& bench = req_string(req, "benchmark");
  const std::string& dataset = req_string(req, "dataset");
  const std::string mode = opt_string(req, "mode", "incremental");
  const std::string device = opt_string(req, "device", "k40");
  mode_from_name(mode);

  bool cached = false;
  auto entry = lookup_or_compile(bench, mode, device, dataset, &cached);
  return run_entry(*entry, req, cancel, cached);
}

Json ServerCore::run_entry(ServedPlan& entry, const Json& req,
                           const CancelToken* cancel, bool cached) {
  auto ticket = std::make_shared<ServedPlan::Ticket>();
  ticket->req = req;
  ticket->cancel = cancel;

  sync::UniqueLock lk(entry.mu);
  entry.pending.push_back(ticket);
  if (entry.leader_active) {
    // Follower: a leader is already draining this entry's queue; it will
    // execute our request in its next batch and wake us.  Explicit loop
    // instead of a predicate lambda so the thread-safety analysis sees the
    // guarded read under the lock it requires.
    while (!ticket->done) entry.cv.wait(entry.mu);
    Json r = ticket->resp;
    lk.unlock();
    bump(counts_.batched_runs);
    r.set("cached", cached);
    r.set("batched", true);
    if (ticket->batch > 1) r.set("batch", ticket->batch);
    return r;
  }

  // Leader: drain the queue in batches until it is empty.  The entry mutex
  // is *released* during execution — leader_active is what excludes other
  // executors — so followers can keep enqueueing while a batch runs, and a
  // burst of N requests against one plan becomes one leader executing N
  // back-to-back runs on the entry's single TieredRuntime.
  //
  // Leadership must be released on every exit path: an exception escaping
  // with leader_active still set would leave followers waiting on the cv
  // forever and wedge the key for the life of the daemon.  run_one failures
  // are caught per ticket so each offending request gets its own error
  // response (a follower's bad thresholds must not surface as the leader's
  // failure, nor abort its batchmates); the guard covers anything else that
  // escapes the drain, failing open tickets and waking every waiter.
  entry.leader_active = true;
  std::deque<std::shared_ptr<ServedPlan::Ticket>> batch;
  struct LeaderGuard {
    ServedPlan& e;
    sync::UniqueLock& lk;
    std::deque<std::shared_ptr<ServedPlan::Ticket>>& batch;
    bool released = false;
    static void fail(ServedPlan::Ticket& t) {
      if (t.done) return;
      t.resp = error_response(code::kInternal, "batch leader aborted");
      t.done = true;
    }
    // The conditional re-lock is invisible to the (intraprocedural,
    // owns_lock-blind) thread-safety analysis; correctness here is covered
    // by the leader-abort regression test instead.
    ~LeaderGuard() NO_THREAD_SAFETY_ANALYSIS {
      if (released) return;
      try {
        if (!lk.owns_lock()) lk.lock();
        for (auto& t : batch) fail(*t);
        for (auto& t : e.pending) fail(*t);
        e.pending.clear();
        e.leader_active = false;
        e.cv.notify_all();
        lk.unlock();
      } catch (...) {
        // Unlockable or unallocatable mid-unwind: nothing safer remains.
      }
    }
  } guard{entry, lk, batch};
  while (!entry.pending.empty()) {
    batch.clear();
    batch.swap(entry.pending);
    lk.unlock();
    if (auto* hook =
            testing::batch_abort_hook.load(std::memory_order_relaxed)) {
      hook();  // outside the per-ticket barriers: simulates a leader abort
    }
    const int bsz = static_cast<int>(batch.size());
    for (auto& t : batch) {
      // Honor each ticket's own deadline before spending runtime on it: a
      // follower that waited out its budget in this queue is answered
      // "timeout" (retriable) without running — its client stopped waiting.
      if (t->cancel && t->cancel->expired()) {
        t->resp = retriable_error(code::kTimeout,
                                  "deadline expired in the batch queue");
        t->batch = bsz;
        bump(counts_.deadline_expired);
        if (trace::enabled()) trace::count("serve.deadline_expired");
        continue;
      }
      try {
        t->resp = run_one(entry, t->req, t->cancel);
      } catch (const JsonParseError& e) {
        t->resp = error_response(code::kBadRequest, e.what());
      } catch (const CompilerError& e) {
        t->resp = error_response(code::kBadRequest, e.what());
      } catch (const EvalError& e) {
        t->resp = error_response(code::kBadRequest, e.what());
      } catch (const std::exception& e) {
        t->resp = error_response(code::kInternal, e.what());
      }
      t->batch = bsz;
    }
    lk.lock();
    for (auto& t : batch) t->done = true;
    entry.cv.notify_all();
    if (bsz > 1) {
      if (trace::enabled()) trace::count("serve.batches");
      bump(counts_.batches);
    }
  }
  entry.leader_active = false;
  guard.released = true;
  Json r = ticket->resp;
  lk.unlock();

  r.set("cached", cached);
  if (entry.plan_reused && !cached) r.set("plan_cached", true);
  if (ticket->batch > 1) r.set("batch", ticket->batch);
  return r;
}

Json ServerCore::do_tune(const Json& req, const CancelToken* cancel) {
  bump(counts_.tunes);
  const std::string& bench = req_string(req, "benchmark");
  const std::string mode = opt_string(req, "mode", "incremental");
  const std::string device = opt_string(req, "device", "k40");

  bool cached = false;
  auto entry = lookup_or_compile(bench, mode, device, "", &cached);

  Benchmark b = get_benchmark(bench);
  std::vector<TuningDataset> train;
  train.reserve(b.tuning.size());
  for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
  if (train.empty())
    throw CompilerError("benchmark '" + bench + "' has no tuning datasets");

  TunerOptions topts;
  topts.max_trials = opts_.tune_trials;
  if (const Json* tv = req.find("trials"))
    topts.max_trials =
        static_cast<int>(req_int(*tv, "'trials'", 1, kMaxTuneTrials));
  // Served tuning measures under the daemon's fault regime, so published
  // thresholds reflect the conditions runs will actually see.
  topts.noise = fspec_.noise;
  topts.measure_seed = opts_.fault_seed;
  if (cancel) {
    // Spend at most the request's remaining budget: the tuner's wall-clock
    // stop returns the incumbent gracefully, so a deadline-bounded tune
    // still publishes the best thresholds it found in time.
    const double left = cancel->remaining_ms();
    if (left < 1e17) {
      topts.budget_ms = std::max(1.0, left);
      if (topts.budget_ms < 1.5) {
        // Effectively nothing left; answer timeout instead of a 1ms farce.
        bump(counts_.deadline_expired);
        if (trace::enabled()) trace::count("serve.deadline_expired");
        return retriable_error(code::kTimeout,
                               "deadline expired before tuning started");
      }
    }
  }

  TuningReport rep;
  {
    trace::Span span("serve.tune", "serve");
    rep = autotune(entry->dev, *entry->compiled.plan,
                   entry->compiled.flat.thresholds, train, topts);
  }

  const std::string pkey = program_key(bench, mode, device);
  {
    sync::MutexLock lk(tuned_mu_);
    tuned_[pkey] = rep.best.values;
  }

  Json thrj = Json::object();
  for (const auto& [name, v] : rep.best.values) thrj.set(name, v);
  Json r = Json::object();
  r.set("ok", true);
  r.set("cached", cached);
  r.set("thresholds", thrj);
  r.set("best_cost_us", rep.best_cost_us);
  r.set("default_cost_us", rep.default_cost_us);
  r.set("trials", rep.trials);
  r.set("evaluations", rep.evaluations);
  return r;
}

Json ServerCore::do_stats() {
  // Snapshot before tallying this call: the report uniformly covers
  // requests completed before it (handle() counts "total" the same way).
  const CacheStats cs = cache_.stats();
  const SchedulerStats ss = sched_.stats();
  const RequestStats rs = request_stats();
  bump(counts_.stats_calls);

  Json cache = Json::object();
  cache.set("hits", cs.hits);
  cache.set("misses", cs.misses);
  cache.set("evictions", cs.evictions);
  cache.set("inserts", cs.inserts);
  cache.set("bytes", cs.bytes);
  cache.set("entries", cs.entries);
  cache.set("byte_budget", cache_.byte_budget());

  Json sched = Json::object();
  sched.set("submitted", ss.submitted);
  sched.set("executed", ss.executed);
  sched.set("failed", ss.failed);
  sched.set("cancelled", ss.cancelled);
  sched.set("expired", ss.expired);
  sched.set("shed", ss.shed);
  sched.set("queued", ss.queued);
  sched.set("running", ss.running);
  sched.set("max_queue_depth", ss.max_queue_depth);
  sched.set("workers", sched_.width());
  sched.set("io_loops", io_loops_.load(std::memory_order_relaxed));

  Json reqs = Json::object();
  reqs.set("total", rs.total);
  reqs.set("compiles", rs.compiles);
  reqs.set("runs", rs.runs);
  reqs.set("inline_runs", rs.inline_runs);
  reqs.set("tunes", rs.tunes);
  reqs.set("stats", rs.stats_calls);
  reqs.set("errors", rs.errors);
  reqs.set("batches", rs.batches);
  reqs.set("batched_runs", rs.batched_runs);
  reqs.set("deadline_expired", rs.deadline_expired);

  Json r = Json::object();
  r.set("ok", true);
  r.set("cache", cache);
  r.set("scheduler", sched);
  r.set("requests", reqs);
  // Fold finished span events into aggregates: a traced daemon answering
  // stats periodically keeps its trace buffer bounded for months of uptime.
  r.set("spans_flushed", trace::flush_spans());
  return r;
}

}  // namespace incflat::serve
