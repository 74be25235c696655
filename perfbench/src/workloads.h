// The benchmark's three workloads.  Each measures for cfg.seconds after
// its set-up and fills `out`; with cfg.trace it reports the per-layer
// metrics instead of the end-to-end ones (see report.h).
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string daemon;   // incflatd executable (serve workloads)
  std::string out_dir;  // results, spans and the daemon socket go here
};

/// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 9;

/// Closed loop on one thread: cold-compile the suite, tune it, price it.
void run_offline(const RunConfig& cfg, Result& out);
/// Closed loop, nproc connections, run requests on warmed keys.
void run_serve_hot(const RunConfig& cfg, Result& out);
/// Open loop, Poisson arrivals, runs and compiles over a cache that is
/// smaller than the working set.
void run_serve_churn(const RunConfig& cfg, Result& out);

}  // namespace perfbench
