// The serve workloads: a real incflatd process driven over a unix socket.
//
// serve_hot   closed loop, one connection per core, `run` requests over the
//             42 incremental-mode (benchmark, dataset, device) keys drawn
//             with zipf 1.1.  The cache holds everything and every key is
//             warmed past the specialization window before timing, so what
//             is left is socket, framing, scheduler hand-off and response
//             write around a few microseconds of core work.
// serve_churn open loop, seeded Poisson arrivals at a fixed rate well below
//             capacity: ~85% `run` over all 126 (benchmark, dataset, mode,
//             device) keys with mild skew, ~15% `compile` over the 60
//             program keys, against a plan cache smaller than the working
//             set.  Latency counts from each request's due time.
//
// Every served estimate_us / kernel_launches is checked against offline
// simulate() of the same key, and every served compile against the
// offline program hash and plan shape.  Served `tune` is left out on
// purpose; see perfbench/README.md.
//
// Each phase is measured in kServeWindows windows (see EndToEnd::windows).
// The traced run (--trace 1) measures 40% of its time untraced and 40%
// traced, then replays the same requests in-process through
// ServerCore::handle_text, the frame codec and Json, and times a raw
// unix-socket round trip of the same frame sizes.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <sstream>
#include <thread>

#include "spans.h"
#include "stats.h"
#include "workloads.h"

#include "src/autotune/journal.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/exec/runtime.h"
#include "src/gpusim/device.h"
#include "src/gpusim/faults.h"
#include "src/ir/print.h"
#include "src/plan/plan.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace incflat;
using incflat::serve::encode_frame;
using incflat::serve::FrameReader;

// ---------------------------------------------------------------- workload

constexpr double kHotZipf = 1.1;
constexpr double kChurnRunZipf = 0.5;  // "mild skew"
constexpr double kChurnCompileShare = 0.15;
/// Offered load of serve_churn: a few percent of serve_hot's capacity, so
/// queueing comes from compiles holding workers, not from overload.
constexpr double kChurnRate = 1000;
/// Seed of serve_churn's key ranking (fixed; see churn_schedule).
constexpr uint64_t kChurnRankSeed = 1;
/// Plan-cache budget of serve_churn (MiB): below the ~2 MiB working set of
/// 60 program entries and 126 run entries, so a steady share misses.
constexpr int kChurnCacheMb = 1;
/// Measurement windows per serve phase, and the share of them, the least
/// stolen, that the end-to-end metrics come from.  The hypervisor steals
/// in bursts of a second or so; in half-second windows (30-s runs) most
/// windows of a run with 1-2% steal see none at all, while in 3-s windows
/// a run with 1-4% steal moved serve_churn's p90 by up to 30%.
constexpr size_t kServeWindows = 60;
constexpr double kCalmShare = 1.0 / 6;
/// Host-speed reference of the serve workloads.  A bare unix-socket round
/// trip between two threads of the benchmark (raw_rtt_us, kRttTrips trips
/// of kRttFrameBytes each way) is timed after every window, and the
/// end-to-end latencies and set-up times of a run are scaled by
/// kReferenceRttUs over the run's median round trip.  Served latency is
/// mostly thread wake-ups and socket calls, which this round trip consists
/// of too: on a 4-vCPU VM the round trip drifted by 14% between runs
/// minutes apart, and dividing by it narrowed the range of serve_churn's
/// p90 over eight runs from 13% to 9%, and of serve_hot's p50 over six
/// from 10% to 8%.
constexpr double kReferenceRttUs = 13;
constexpr size_t kRttFrameBytes = 256;
constexpr size_t kRttTrips = 200;
/// Latency limits for slo_met_frac.
constexpr double kHotLimitUs = 2'000;
constexpr double kChurnLimitUs = 10'000;
/// Runs per key before timing: past the daemon's default stability window
/// of 8, so every hot key is on the specialized tier.
constexpr int kWarmRunsPerKey = 16;
/// A request unanswered this long counts as failed ("timeout").
constexpr int kResponseTimeoutMs = 10'000;
/// Requests replayed in-process by the traced run.
constexpr size_t kReplayRequests = 20'000;

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

const char* const kModeNames[] = {"moderate", "incremental", "full"};
const char* const kDeviceNames[] = {"k40", "vega64"};
DeviceProfile device_named(const std::string& n) {
  return n == "k40" ? device_k40() : device_vega64();
}

struct RunKey {
  std::string bench, dataset, mode, device;
  std::string frame;  // the encoded request
  double estimate_us = 0;
  int64_t launches = 0;
  std::shared_ptr<const KernelPlan> plan;  // for the in-process replay
  SizeEnv sizes;
};

struct ProgramKey {
  std::string bench, mode, device;
  std::string frame;
  std::string program_hash;
  int64_t kernels = 0, guards = 0, thresholds = 0;
};

struct Keys {
  std::vector<RunKey> runs;         // all 126
  std::vector<size_t> hot;          // indices of the 42 incremental keys
  std::vector<ProgramKey> programs;  // all 60
};

std::string hex64(uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// The offline twin of every served key: compile() as the daemon does it
/// (default options) and simulate() with default thresholds.
Keys build_keys() {
  Keys k;
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (const char* mode : kModeNames) {
      const Compiled c = compile(b.program, mode_from_name(mode));
      const std::string ir = pretty(c.flat.program);
      for (const char* dev : kDeviceNames) {
        ProgramKey pk{b.name, mode, dev, "", "", 0, 0, 0};
        Json req = Json::object();
        req.set("op", "compile");
        req.set("benchmark", b.name);
        req.set("mode", mode);
        req.set("device", dev);
        pk.frame = encode_frame(req.str(-1));
        pk.program_hash = hex64(journal_hash(ir.data(), ir.size()));
        pk.kernels = static_cast<int64_t>(c.plan->kernels.size());
        pk.guards = static_cast<int64_t>(c.plan->guards.size());
        pk.thresholds = static_cast<int64_t>(c.plan->thresholds.size());
        k.programs.push_back(std::move(pk));

        for (const auto& d : b.datasets) {
          const RunEstimate e = simulate(device_named(dev), c, d.sizes);
          Json r = Json::object();
          r.set("op", "run");
          r.set("benchmark", b.name);
          r.set("dataset", d.name);
          r.set("mode", mode);
          r.set("device", dev);
          if (std::string(mode) == "incremental") k.hot.push_back(k.runs.size());
          k.runs.push_back({b.name, d.name, mode, dev, encode_frame(r.str(-1)),
                            e.time_us, e.kernel_launches, c.plan, d.sizes});
        }
      }
    }
  }
  return k;
}

// ---------------------------------------------------------------- process

/// A spawned incflatd, stopped (SIGTERM, then SIGKILL) on destruction.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         std::string socket)
      : socket_(std::move(socket)) {
    int out[2];
    if (pipe(out) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    posix_spawn_file_actions_addclose(&fa, out[0]);
    posix_spawn_file_actions_addclose(&fa, out[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(out[1]);
    out_fd_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      stop();
      throw std::runtime_error("cannot start " + exe + ": " +
                               std::strerror(rc));
    }
    try {
      wait_ready();
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }

  /// Graceful drain; killed if it has not exited within 15 s.
  void stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      const int64_t deadline = now_ns() + int64_t{15'000'000'000};
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (now_ns() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        usleep(2000);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
    unlink(socket_.c_str());
  }

 private:
  /// Block until the daemon prints "READY <endpoint>".
  void wait_ready() {
    std::string line;
    const int64_t deadline = now_ns() + int64_t{30'000'000'000};
    while (line.find('\n') == std::string::npos) {
      const int64_t left_ms = (deadline - now_ns()) / 1'000'000;
      pollfd p{out_fd_, POLLIN, 0};
      if (left_ms <= 0 || poll(&p, 1, static_cast<int>(left_ms)) <= 0)
        throw std::runtime_error("incflatd did not become ready");
      char buf[256];
      const ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("incflatd exited before ready");
      line.append(buf, static_cast<size_t>(n));
    }
    if (line.rfind("READY ", 0) != 0)
      throw std::runtime_error("unexpected incflatd output: " + line);
  }

  std::string socket_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// ---------------------------------------------------------------- client

struct TransportError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw TransportError("socket failed");
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throw TransportError(std::string("connect failed: ") + std::strerror(errno));
  }
  return fd;
}

void write_all(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw TransportError("write failed");
    off += static_cast<size_t>(n);
  }
}

/// One client connection to the daemon, using the library's frame codec.
class Conn {
 public:
  explicit Conn(const std::string& path) : fd_(connect_unix(path)) {}
  ~Conn() { close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  int fd() const { return fd_; }

  void send_frame(const std::string& frame) { write_all(fd_, frame); }

  /// Read what the socket has; false on EOF or error.  A malformed frame
  /// header is a protocol violation.
  bool pump() {
    char buf[16384];
    const ssize_t n = recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      try {
        reader_.feed(buf, static_cast<size_t>(n));
      } catch (const serve::ProtocolError& e) {
        throw ProtocolViolation(e.what());
      }
      return true;
    }
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
  }
  bool next(std::string* payload) {
    try {
      return reader_.next(payload);
    } catch (const serve::ProtocolError& e) {
      throw ProtocolViolation(e.what());
    }
  }

  /// Send one request and block for its response.
  std::string call(const std::string& frame) {
    send_frame(frame);
    std::string payload;
    const int64_t deadline =
        now_ns() + int64_t{kResponseTimeoutMs} * 1'000'000;
    while (!next(&payload)) {
      pollfd p{fd_, POLLIN, 0};
      const int64_t left_ms = (deadline - now_ns()) / 1'000'000;
      if (left_ms <= 0) throw TransportError("timeout");
      const int r = poll(&p, 1, static_cast<int>(left_ms));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) throw TransportError("timeout");
      if (!pump()) throw TransportError("connection closed");
    }
    return payload;
  }

 private:
  int fd_;
  FrameReader reader_;
};

// ---------------------------------------------------------------- checks

/// Outcome of one response: "" when correct, else the failure cause.
struct Checked {
  std::string cause;
  bool specialized = false;
  bool deopted = false;
};

Json parse_response(const std::string& payload) {
  Json r;
  try {
    r = Json::parse(payload);
  } catch (const std::exception& e) {
    throw ProtocolViolation(std::string("unparseable response: ") + e.what());
  }
  const Json* ok = r.find("ok");
  if (!ok || !ok->is_bool())
    throw ProtocolViolation("response without a boolean ok: " + payload);
  return r;
}

std::string failure_cause(const Json& r) {
  const Json* c = r.find("code");
  const std::string code = c && c->is_string() ? c->as_string() : "";
  if (code == serve::code::kOverloaded || code == serve::code::kDraining)
    return "shed";
  if (code == serve::code::kTimeout || code == serve::code::kCancelled)
    return "timeout";
  return "error";
}

double number(const Json& r, const char* key) {
  const Json* v = r.find(key);
  return v && v->is_number() ? v->as_double() : std::nan("");
}

Checked check_run(const std::string& payload, const RunKey& k) {
  const Json r = parse_response(payload);
  Checked c;
  if (!r.get("ok").as_bool()) {
    c.cause = failure_cause(r);
    return c;
  }
  if (number(r, "estimate_us") != k.estimate_us ||
      number(r, "kernel_launches") != static_cast<double>(k.launches))
    c.cause = "mismatch";
  const Json* tier = r.find("tier");
  c.specialized = tier && tier->is_string() && tier->as_string() == "specialized";
  c.deopted = r.find("deopted") != nullptr;
  return c;
}

Checked check_compile(const std::string& payload, const ProgramKey& k) {
  const Json r = parse_response(payload);
  Checked c;
  if (!r.get("ok").as_bool()) {
    c.cause = failure_cause(r);
    return c;
  }
  const Json* hash = r.find("program_hash");
  if (!hash || !hash->is_string() || hash->as_string() != k.program_hash ||
      number(r, "kernels") != static_cast<double>(k.kernels) ||
      number(r, "guards") != static_cast<double>(k.guards) ||
      number(r, "thresholds") != static_cast<double>(k.thresholds))
    c.cause = "mismatch";
  return c;
}

/// One request of a workload: a run key or a program key.
struct Request {
  bool compile = false;
  size_t key = 0;
};

const std::string& frame_of(const Keys& keys, const Request& q) {
  return q.compile ? keys.programs[q.key].frame : keys.runs[q.key].frame;
}

Checked check(const Keys& keys, const Request& q, const std::string& payload) {
  return q.compile ? check_compile(payload, keys.programs[q.key])
                   : check_run(payload, keys.runs[q.key]);
}

std::string describe(const Keys& keys, const Request& q) {
  if (q.compile) {
    const auto& k = keys.programs[q.key];
    return "compile " + k.bench + "|" + k.mode + "|" + k.device;
  }
  const auto& k = keys.runs[q.key];
  return "run " + k.bench + "|" + k.dataset + "|" + k.mode + "|" + k.device;
}

// ------------------------------------------------------------- tallies

/// What one measured phase saw, per request.
struct Sample {
  Request req;
  double latency_us = 0;
  std::string cause;  // "" = answered correctly
  bool specialized = false;
  bool deopted = false;
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<size_t> window_ends;   // sample index past each window
  std::vector<double> window_steal;  // share of CPU time stolen per window
  std::vector<double> window_rtt_us; // raw round trip timed after each window
  std::vector<double> late_us;       // open loop only
  double seconds = 0;
};

/// Count one answered (or failed) request of `kind` in the run's tallies.
void record(Result& out, const char* kind, const Keys& keys, const Request& q,
            const std::string& cause) {
  if (cause.empty())
    out.op(kind).ok();
  else if (cause == "mismatch")
    out.mismatch(kind, describe(keys, q) + ": differs from offline");
  else
    out.op(kind).fail(cause);
}

void tally(const Keys& keys, const Phase& ph, Result& out) {
  for (const Sample& s : ph.samples)
    record(out, s.req.compile ? "compile" : "run", keys, s.req, s.cause);
}

std::vector<double> latencies(const Phase& ph, int which /* -1 all, 0 run,
                                                              1 compile */) {
  std::vector<double> v;
  for (const Sample& s : ph.samples)
    if (s.cause.empty() &&
        (which < 0 || (which == 1) == s.req.compile))
      v.push_back(s.latency_us);
  return v;
}

// ---------------------------------------------------------------- set-up

struct Served {
  Keys keys;
  std::unique_ptr<Daemon> daemon;
  std::string socket;
  std::vector<std::string> args;
};

std::vector<Request> warmup_requests(const Keys& keys, bool churn) {
  std::vector<Request> w;
  if (churn) {
    for (size_t i = 0; i < keys.programs.size(); ++i) w.push_back({true, i});
    for (size_t i = 0; i < keys.runs.size(); ++i) w.push_back({false, i});
  } else {
    for (int r = 0; r < kWarmRunsPerKey; ++r)
      for (size_t i : keys.hot) w.push_back({false, i});
  }
  return w;
}

Served set_up(const RunConfig& cfg, bool churn, int index, Result& out) {
  Served s;
  s.keys = build_keys();
  s.socket = cfg.out_dir + "/incflatd-" + std::to_string(getpid()) + "-" +
             std::to_string(index) + ".sock";
  unlink(s.socket.c_str());
  s.args = {"--listen", "unix:" + s.socket, "--ready"};
  if (churn) {
    s.args.push_back("--cache-mb");
    s.args.push_back(std::to_string(kChurnCacheMb));
  }
  s.daemon = std::make_unique<Daemon>(cfg.daemon, s.args, s.socket);
  Conn c(s.socket);
  for (const Request& q : warmup_requests(s.keys, churn))
    record(out, "warmup", s.keys, q,
           check(s.keys, q, c.call(frame_of(s.keys, q))).cause);
  return s;
}

// ------------------------------------------------------------ hot loop

Phase closed_loop(const Served& s, uint64_t seed, const std::string& label,
                  double seconds) {
  const int clients = nproc();
  const ZipfSampler zipf(s.keys.hot.size(), kHotZipf,
                         derive_seed(seed, "hot-keys"));
  std::vector<Phase> per(static_cast<size_t>(clients));
  std::vector<std::string> errors(static_cast<size_t>(clients));
  const int64_t end = now_ns() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      try {
        SeedRng rng(derive_seed(seed, label + "-client-" + std::to_string(t)));
        auto conn = std::make_unique<Conn>(s.socket);
        uint64_t seq = 0;
        Phase& ph = per[static_cast<size_t>(t)];
        while (now_ns() < end) {
          const Request q{false, s.keys.hot[zipf.draw(rng)]};
          Sample smp{q, 0, "", false, false};
          std::string payload;
          {
            Span span("serve.request",
                      (static_cast<uint64_t>(t + 1) << 40) | ++seq);
            try {
              payload = conn->call(frame_of(s.keys, q));
              smp.latency_us = span.elapsed_us();
            } catch (const TransportError& e) {
              smp.cause = std::string(e.what()) == "timeout" ? "timeout"
                                                             : "reset";
            }
          }
          if (smp.cause.empty()) {
            const Checked c = check(s.keys, q, payload);
            smp.cause = c.cause;
            smp.specialized = c.specialized;
            smp.deopted = c.deopted;
          } else {
            conn = std::make_unique<Conn>(s.socket);
          }
          ph.samples.push_back(std::move(smp));
        }
      } catch (const std::exception& e) {
        errors[static_cast<size_t>(t)] = e.what();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& e : errors)
    if (!e.empty()) throw std::runtime_error(e);
  Phase all;
  all.seconds = seconds;
  for (auto& p : per)
    all.samples.insert(all.samples.end(), p.samples.begin(), p.samples.end());
  return all;
}

// ----------------------------------------------------------- churn loop

struct Scheduled {
  double due_s = 0;
  Request req;
};

std::vector<Scheduled> churn_schedule(const Keys& keys, uint64_t seed,
                                      const std::string& label,
                                      double seconds) {
  const std::vector<double> due =
      poisson_arrivals(kChurnRate, seconds, derive_seed(seed, label + "-arrivals"));
  // The ranking of the run keys is the same for every seed: which
  // programs are hot decides how much compiling a miss costs, and that
  // would otherwise move the latencies from one seed to the next.  The
  // seed draws the arrivals, the mix and the keys.
  const ZipfSampler runs(keys.runs.size(), kChurnRunZipf,
                         derive_seed(kChurnRankSeed, "churn-run-keys"));
  const ZipfSampler programs(keys.programs.size(), 0.0,
                             derive_seed(kChurnRankSeed, "churn-compile-keys"));
  SeedRng rng(derive_seed(seed, label + "-mix"));
  std::vector<Scheduled> out;
  out.reserve(due.size());
  for (double d : due) {
    const bool compile = rng.uniform() < kChurnCompileShare;
    out.push_back({d, {compile, compile ? programs.draw(rng) : runs.draw(rng)}});
  }
  return out;
}

Phase open_loop(const Served& s, const std::vector<Scheduled>& sched,
                double seconds) {
  const int nconn = nproc();
  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < nconn; ++i)
    conns.push_back(std::make_unique<Conn>(s.socket));
  struct Pending {
    size_t index;
    int64_t due_ns;
  };
  std::vector<std::deque<Pending>> pending(static_cast<size_t>(nconn));
  std::vector<bool> dead(static_cast<size_t>(nconn), false);
  Phase ph;
  ph.seconds = seconds;
  ph.samples.resize(sched.size());
  for (size_t i = 0; i < sched.size(); ++i) {
    ph.samples[i].req = sched[i].req;
    ph.samples[i].cause = "unanswered";
  }

  const int64_t start = now_ns() + 1'000'000;
  const int64_t stop_waiting = start + static_cast<int64_t>(seconds * 1e9) +
                               int64_t{kResponseTimeoutMs} * 1'000'000;
  size_t next = 0, outstanding = 0;
  std::vector<pollfd> fds(static_cast<size_t>(nconn));
  std::string payload;
  for (;;) {
    int64_t now = now_ns();
    while (next < sched.size() &&
           start + static_cast<int64_t>(sched[next].due_s * 1e9) <= now) {
      const int64_t due = start + static_cast<int64_t>(sched[next].due_s * 1e9);
      const size_t c = next % static_cast<size_t>(nconn);
      if (dead[c]) {
        ph.samples[next].cause = "reset";
      } else {
        try {
          conns[c]->send_frame(frame_of(s.keys, sched[next].req));
          pending[c].push_back({next, due});
          ++outstanding;
        } catch (const TransportError&) {
          ph.samples[next].cause = "reset";
        }
      }
      ph.late_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
      ++next;
      now = now_ns();
    }
    if (next >= sched.size() && (outstanding == 0 || now >= stop_waiting))
      break;

    int64_t wait_ns = next < sched.size()
                          ? start + static_cast<int64_t>(sched[next].due_s * 1e9) - now
                          : stop_waiting - now;
    wait_ns = std::max<int64_t>(wait_ns, 0);
    for (size_t c = 0; c < fds.size(); ++c)
      fds[c] = {dead[c] ? -1 : conns[c]->fd(), POLLIN, 0};
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int r = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (r <= 0) continue;
    for (size_t c = 0; c < fds.size(); ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const bool alive = conns[c]->pump();
      const int64_t t_recv = now_ns();
      while (conns[c]->next(&payload)) {
        if (pending[c].empty())
          throw ProtocolViolation("response without a request");
        const Pending p = pending[c].front();
        pending[c].pop_front();
        --outstanding;
        Sample& smp = ph.samples[p.index];
        smp.latency_us = static_cast<double>(t_recv - p.due_ns) / 1e3;
        const Checked ck = check(s.keys, smp.req, payload);
        smp.cause = ck.cause;
        smp.specialized = ck.specialized;
        smp.deopted = ck.deopted;
      }
      if (!alive) {
        dead[c] = true;
        for (const Pending& p : pending[c]) ph.samples[p.index].cause = "reset";
        outstanding -= pending[c].size();
        pending[c].clear();
      }
    }
  }
  for (auto& q : pending)
    for (const Pending& p : q) ph.samples[p.index].cause = "unanswered";
  return ph;
}

/// Median round trip of a bare unix stream socket pair moving frames of
/// the given sizes: the floor under any daemon's transport.
double raw_rtt_us(size_t request_bytes, size_t response_bytes, size_t trips) {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw std::runtime_error("socketpair failed");
  auto read_exact = [](int fd, std::string& buf, size_t n) {
    buf.resize(n);
    size_t got = 0;
    while (got < n) {
      const ssize_t r = read(fd, buf.data() + got, n - got);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  };
  std::thread echo([&] {
    std::string in;
    const std::string reply(response_bytes, 'r');
    for (size_t i = 0; i < trips; ++i) {
      if (!read_exact(sv[1], in, request_bytes)) return;
      write_all(sv[1], reply);
    }
  });
  std::vector<double> rtt;
  const std::string req(request_bytes, 'q');
  std::string in;
  for (size_t i = 0; i < trips; ++i) {
    const int64_t t0 = now_ns();
    write_all(sv[0], req);
    if (!read_exact(sv[0], in, response_bytes)) break;
    rtt.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  echo.join();
  close(sv[0]);
  close(sv[1]);
  return percentile(rtt, 50);
}

/// Measure for `seconds` in kServeWindows windows; window w uses the
/// streams of "<label>-w<w>".
Phase measure(const Served& s, bool churn, uint64_t seed,
              const std::string& label, double seconds) {
  Phase all;
  for (size_t w = 0; w < kServeWindows; ++w) {
    const std::string wl = label + "-w" + std::to_string(w);
    const double ws = seconds / kServeWindows;
    const CpuTicks t0 = cpu_ticks();
    const Phase ph =
        churn ? open_loop(s, churn_schedule(s.keys, seed, wl, ws), ws)
              : closed_loop(s, seed, wl, ws);
    all.samples.insert(all.samples.end(), ph.samples.begin(), ph.samples.end());
    all.late_us.insert(all.late_us.end(), ph.late_us.begin(), ph.late_us.end());
    all.seconds += ph.seconds;
    all.window_ends.push_back(all.samples.size());
    const CpuTicks t1 = cpu_ticks();
    all.window_steal.push_back(t1.total > t0.total ? (t1.steal - t0.steal) /
                                                         (t1.total - t0.total)
                                                   : 0);
    all.window_rtt_us.push_back(
        raw_rtt_us(kRttFrameBytes, kRttFrameBytes, kRttTrips));
  }
  return all;
}

// -------------------------------------------------------------- stats op

struct DaemonStats {
  double hits = 0, misses = 0, evictions = 0;
  double shed = 0, expired = 0, max_queue_depth = 0;
  double runs = 0, batched_runs = 0;
};

DaemonStats daemon_stats(const std::string& socket) {
  Conn c(socket);
  const Json r = parse_response(c.call(encode_frame("{\"op\":\"stats\"}")));
  DaemonStats s;
  const Json& cache = r.get("cache");
  const Json& sched = r.get("scheduler");
  const Json& reqs = r.get("requests");
  s.hits = cache.get("hits").as_double();
  s.misses = cache.get("misses").as_double();
  s.evictions = cache.get("evictions").as_double();
  s.shed = sched.get("shed").as_double();
  s.expired = sched.get("expired").as_double();
  s.max_queue_depth = sched.get("max_queue_depth").as_double();
  s.runs = reqs.get("runs").as_double();
  s.batched_runs = reqs.get("batched_runs").as_double();
  return s;
}

// ------------------------------------------------------ in-process replay

struct Replay {
  std::vector<double> frame_us, parse_us, handle_us, format_us;
  std::vector<double> tiered_us, estimate_us;
  double request_bytes = 0, response_bytes = 0;
};

Replay replay(const Keys& keys, const std::vector<Request>& warm,
              const std::vector<Request>& reqs, bool churn, Result& out) {
  serve::ServeOptions opts;
  if (churn) opts.cache_bytes = size_t{kChurnCacheMb} << 20;
  serve::ServerCore core(opts);
  auto payload_of = [&](const Request& q) {
    return frame_of(keys, q).substr(4);
  };
  for (const Request& q : warm) core.handle_text(payload_of(q));

  Replay rp;
  uint64_t id = 0;
  for (const Request& q : reqs) {
    Span root("replay.request", (uint64_t{1} << 56) | ++id);
    std::string payload, response;
    double frame_us = 0;
    {
      Span span("protocol.frame");
      FrameReader reader;
      reader.feed(frame_of(keys, q));
      reader.next(&payload);
      frame_us += span.elapsed_us();
    }
    {
      Span span("protocol.parse");
      const Json parsed = Json::parse(payload);
      rp.parse_us.push_back(span.elapsed_us());
    }
    {
      Span span("core.handle");
      response = core.handle_text(payload);
      rp.handle_us.push_back(span.elapsed_us());
    }
    const Json parsed = parse_response(response);
    {
      Span span("protocol.format");
      const std::string text = parsed.str(-1);
      rp.format_us.push_back(span.elapsed_us());
    }
    {
      Span span("protocol.frame");
      const std::string framed = encode_frame(response);
      frame_us += span.elapsed_us();
    }
    rp.frame_us.push_back(frame_us);
    rp.request_bytes += static_cast<double>(payload.size());
    rp.response_bytes += static_cast<double>(response.size());
    record(out, "replay", keys, q, check(keys, q, response).cause);
  }
  rp.request_bytes /= static_cast<double>(std::max<size_t>(1, reqs.size()));
  rp.response_bytes /= static_cast<double>(std::max<size_t>(1, reqs.size()));

  // The exec and plan layers on their own, one runtime per run key.
  std::vector<std::unique_ptr<TieredRuntime>> rts(keys.runs.size());
  FaultPlan faults;
  for (const Request& q : reqs) {
    if (q.compile) continue;
    const RunKey& k = keys.runs[q.key];
    auto& rt = rts[q.key];
    if (!rt)
      rt = std::make_unique<TieredRuntime>(device_named(k.device), *k.plan);
    {
      Span span("exec.tiered_run");
      rt->run(k.sizes, ThresholdEnv{}, faults);
      rp.tiered_us.push_back(span.elapsed_us());
    }
    {
      Span span("plan.estimate");
      plan_estimate_run(*k.plan, device_named(k.device), k.sizes,
                        ThresholdEnv{});
      rp.estimate_us.push_back(span.elapsed_us());
    }
  }
  return rp;
}

// ------------------------------------------------------------------- run

void run_serve(const RunConfig& cfg, bool churn, Result& out) {
  std::vector<double> setup_s;
  Served s;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = now_ns();
    Served next = set_up(cfg, churn, i, out);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    s = std::move(next);  // stops the previous daemon
  }
  Json dopts = Json::array();
  for (const auto& a : s.args) dopts.push(a);
  out.host().set("daemon_args", dopts);
  out.host().set("client_connections", nproc());
  if (churn) out.host().set("offered_rate_per_s", kChurnRate);

  const DaemonStats before = daemon_stats(s.socket);
  const double untraced_s = cfg.trace ? cfg.seconds * 0.4 : cfg.seconds;
  const Phase ph = measure(s, churn, cfg.seed, "measure", untraced_s);
  const DaemonStats after = daemon_stats(s.socket);
  tally(s.keys, ph, out);

  if (!cfg.trace) {
    const double rtt_us = percentile(ph.window_rtt_us, 50);
    const double scale = kReferenceRttUs / rtt_us;
    EndToEnd e;
    e.calm_share = kCalmShare;
    size_t begin = 0;
    for (size_t k = 0; k < ph.window_ends.size(); ++k) {
      Window& w = e.windows.emplace_back();
      for (size_t i = begin; i < ph.window_ends[k]; ++i)
        if (ph.samples[i].cause.empty())
          w.latency_us.push_back(ph.samples[i].latency_us * scale);
      w.attempted = ph.window_ends[k] - begin;
      w.seconds = ph.seconds / static_cast<double>(ph.window_ends.size());
      w.steal = ph.window_steal[k];
      begin = ph.window_ends[k];
    }
    e.limit_us = churn ? kChurnLimitUs : kHotLimitUs;
    for (double t : setup_s) e.setup_s.push_back(t * scale);
    e.rss_mb = peak_rss_mb(s.daemon->pid());
    report_end_to_end(e, out);
    std::ostringstream os;
    os << "latencies and set-up times scaled to a reference host: x" << scale
       << " = "
       << kReferenceRttUs << " us / median raw round trip " << rtt_us
       << " us";
    out.note(os.str());
    s.daemon->stop();
    return;
  }

  // --- per-layer metrics ---------------------------------------------------
  const Summary lat = summarize(latencies(ph, -1));
  const auto runs = latencies(ph, 0);
  const auto compiles = latencies(ph, 1);
  out.set("run_us_p50", percentile(runs, 50), runs.size());
  out.set("run_us_p99", percentile(runs, 99), runs.size());
  out.set("run_rps", static_cast<double>(runs.size()) / ph.seconds, runs.size());
  if (churn) {
    out.set("compile_us_p50", percentile(compiles, 50), compiles.size());
    out.set("compile_us_p99", percentile(compiles, 99), compiles.size());
    out.set("loadgen.late_us_p99", percentile(ph.late_us, 99),
            ph.late_us.size());
  }
  size_t served_runs = 0, specialized = 0, deopts = 0;
  for (const Sample& smp : ph.samples) {
    if (smp.req.compile || !smp.cause.empty()) continue;
    ++served_runs;
    specialized += smp.specialized;
    deopts += smp.deopted;
  }
  out.set("exec.specialized_frac",
          static_cast<double>(specialized) /
              static_cast<double>(std::max<size_t>(1, served_runs)),
          served_runs);
  out.set("exec.deopts", static_cast<double>(deopts), served_runs);

  const double lookups = (after.hits - before.hits) + (after.misses - before.misses);
  out.set("plan_cache.hit_ratio",
          lookups > 0 ? (after.hits - before.hits) / lookups : 0,
          static_cast<size_t>(lookups));
  out.set("plan_cache.misses", after.misses - before.misses,
          static_cast<size_t>(lookups));
  out.set("plan_cache.evictions", after.evictions - before.evictions,
          static_cast<size_t>(lookups));
  out.set("scheduler.max_queue_depth", after.max_queue_depth, 1);
  out.set("scheduler.shed", after.shed - before.shed, ph.samples.size());
  out.set("scheduler.expired", after.expired - before.expired,
          ph.samples.size());
  const double druns = after.runs - before.runs;
  const double leaders = druns - (after.batched_runs - before.batched_runs);
  out.set("batch.runs_per_batch", leaders > 0 ? druns / leaders : 0,
          static_cast<size_t>(druns));

  // Traced socket phase: same loop, spans on; the p50 difference is the
  // tracing overhead.
  set_tracing(true);
  const Phase tph = measure(s, churn, cfg.seed, "traced", cfg.seconds * 0.4);
  tally(s.keys, tph, out);
  const Summary tlat = summarize(latencies(tph, -1));
  out.set("trace.overhead_pct", (tlat.p50 / lat.p50 - 1) * 100, tlat.n);
  s.daemon->stop();

  // In-process replay of the measured requests (serve_hot: client 0's key
  // stream; serve_churn: the schedules of the windows), still traced.
  std::vector<Request> reqs;
  if (churn) {
    for (size_t w = 0; w < kServeWindows && reqs.size() < kReplayRequests;
         ++w) {
      for (const Scheduled& q :
           churn_schedule(s.keys, cfg.seed, "measure-w" + std::to_string(w),
                          untraced_s / kServeWindows)) {
        if (reqs.size() >= kReplayRequests) break;
        reqs.push_back(q.req);
      }
    }
  } else {
    const ZipfSampler zipf(s.keys.hot.size(), kHotZipf,
                           derive_seed(cfg.seed, "hot-keys"));
    SeedRng rng(derive_seed(cfg.seed, "measure-w0-client-0"));
    for (size_t i = 0; i < kReplayRequests; ++i)
      reqs.push_back({false, s.keys.hot[zipf.draw(rng)]});
  }
  const Replay rp = replay(s.keys, warmup_requests(s.keys, churn), reqs, churn,
                           out);
  set_tracing(false);
  const double handle_p50 = percentile(rp.handle_us, 50);
  out.set("protocol.parse_us", percentile(rp.parse_us, 50), rp.parse_us.size());
  out.set("protocol.format_us", percentile(rp.format_us, 50),
          rp.format_us.size());
  out.set("protocol.frame_us", percentile(rp.frame_us, 50), rp.frame_us.size());
  out.set("core.handle_us", handle_p50, rp.handle_us.size());
  out.set("exec.tiered_run_us", percentile(rp.tiered_us, 50),
          rp.tiered_us.size());
  out.set("plan.estimate_us", percentile(rp.estimate_us, 50),
          rp.estimate_us.size());
  out.set("net.transport_us", lat.p50 - handle_p50, lat.n);
  const size_t trips = 20'000;
  out.set("net.raw_rtt_us",
          raw_rtt_us(static_cast<size_t>(rp.request_bytes) + 4,
                     static_cast<size_t>(rp.response_bytes) + 4, trips),
          trips);
}

}  // namespace

void run_serve_hot(const RunConfig& cfg, Result& out) {
  run_serve(cfg, false, out);
}

void run_serve_churn(const RunConfig& cfg, Result& out) {
  run_serve(cfg, true, out);
}

}  // namespace perfbench
