// Metric catalog, failure accounting and result output.
//
// The catalog mirrors BENCHMARK.json: `--trace 0` reports every end-to-end
// metric and `--trace 1` every per-layer metric, on every workload.  A
// per-layer metric of a layer the workload does not exercise reads 0 with
// n=0.  `perfbench --list-metrics` prints the catalog so run.py's self-test
// can hold it against BENCHMARK.json.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/support/json.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Attempted / succeeded / failed tallies of one operation kind, with the
/// failures split by cause (error response, mismatch, shed, timeout, ...).
struct OpTally {
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  std::map<std::string, int64_t> causes;
  void ok() {
    ++attempted;
    ++succeeded;
  }
  void fail(const std::string& cause) {
    ++attempted;
    ++failed;
    ++causes[cause];
  }
};

/// A protocol violation (bad frame, unparseable JSON, a response without a
/// boolean "ok"): the run is aborted without a result.
struct ProtocolViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Result {
 public:
  /// Record a metric value with its sample count (n=0: not exercised).
  void set(const std::string& name, double value, size_t n);
  bool has(const std::string& name) const { return values_.count(name) > 0; }
  OpTally& op(const std::string& kind) { return ops_[kind]; }
  /// Output mismatches make the run incorrect; each is also a failed op.
  void mismatch(const std::string& kind, const std::string& what);
  incflat::Json& host() { return host_; }
  void note(const std::string& line) { notes_.push_back(line); }

  int64_t attempted() const;
  int64_t failed() const;
  int64_t mismatches() const { return mismatches_; }

  /// Print the human-readable report (metrics with unit and n, op tallies,
  /// host block, notes) and, last, the one-line JSON result holding the
  /// catalog's metrics for this mode.  Returns false if a catalog metric
  /// was never set (a benchmark bug).
  bool print(FILE* out, bool trace) const;
  /// The full record (every metric, tallies, host) for the results file.
  incflat::Json record(bool trace) const;

 private:
  struct Value {
    double value = 0;
    size_t n = 0;
  };
  std::map<std::string, Value> values_;
  std::map<std::string, OpTally> ops_;
  std::vector<std::string> notes_;
  int64_t mismatches_ = 0;
  incflat::Json host_ = incflat::Json::object();
};

/// One measurement window of a run.
struct Window {
  std::vector<double> latency_us;  // units answered correctly
  size_t attempted = 0;            // units attempted
  double seconds = 0;              // time the units took
  double steal = 0;                // share of CPU time stolen meanwhile
};

/// Percentile of latency_us_tail.  p90: steal-time stalls of a shared VM
/// hit about 1% of requests and move a p99 by 10x from one run to the next
/// (per-op p99s are per-layer metrics).
constexpr double kTailPercentile = 90;

/// Raw end-to-end measurements of one run.
struct EndToEnd {
  /// The latency metrics are medians over windows of the per-window
  /// percentiles, so one window hit by a co-tenant burst does not move
  /// them.  Every metric but setup_s and rss_mb comes from the share
  /// `calm_share` of the windows with the least steal (rounded up).
  std::vector<Window> windows;
  double calm_share = 1;
  double limit_us = 0;  // latency limit of slo_met_frac
  std::vector<double> setup_s;
  double rss_mb = 0;
};
/// Report the end-to-end metrics.
void report_end_to_end(const EndToEnd& e, Result& out);

/// Peak resident set (VmHWM) of a process in MiB, from /proc; 0 if
/// unreadable.
double peak_rss_mb(int pid);
/// The three load averages from /proc/loadavg.
incflat::Json loadavg();

/// Aggregate CPU tick counters from /proc/stat: total and steal (time the
/// hypervisor ran other guests on this machine's virtual CPUs).
struct CpuTicks {
  double total = 0, steal = 0;
};
CpuTicks cpu_ticks();

}  // namespace perfbench
