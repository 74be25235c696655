// Fault-tolerant simulated runtime: retries, backoff, and graceful
// version-degradation over the guard tree.
//
// The paper's multi-versioned code — sibling code versions guarded by
// threshold predicates — doubles as a graceful-degradation mechanism: when
// the selected version cannot run (scratchpad allocation failure, repeated
// launch faults, a kernel overrunning its timeout), a *sibling* version of
// the same map nest still can.  run_with_faults executes the kernel plan's
// launch schedule against a FaultPlan under a RunPolicy:
//
//   * transient faults (launch-failed, launch-timeout, device-lost) are
//     retried with capped exponential backoff;
//   * persistent faults (local-alloc-failed, retries exhausted, a kernel
//     that can never meet the per-kernel timeout) *degrade*: the innermost
//     taken guard on the failing kernel's tree path is forced off, falling
//     back intra-group -> outer-only sequentialised -> fully flattened, and
//     the run restarts under the degraded assignment;
//   * when no sibling survives (the fully flattened version itself faults
//     persistently) or the degradation budget is exhausted, the run returns
//     a structured Diagnostic instead of throwing raw.
//
// Every fault, retry and degradation is recorded in the RunOutcome report
// and in the exec.faults / exec.retries / exec.degradations trace counters.
// Degradation changes only *which* guarded version runs, never the values
// it computes (the paper's semantics-preservation property), so a degraded
// run is value-identical to the fault-free one — execute the outcome's
// effective thresholds to check against the interpreter oracle.
// Tiered execution (TieredRuntime, at the bottom of this header) stacks a
// speculative tier on top: successful non-degraded runs feed an execution
// profile (src/profile/), stable guard streaks trigger specialization
// (src/plan/specialize.h), and subsequent runs whose shape guards pass
// replay the straight-line specialized schedule instead of descending the
// tree.  Any crack in the speculation — shape drift, a changed threshold
// assignment, a persistent fault mid-specialized-run, a fault degradation —
// *deoptimizes*: the specialized plan is invalidated, decision streaks are
// reset (re-specializing requires a fresh stability window), and the run
// restarts on the tree tier, which remains the sole authority for
// correctness.  Specialization off = bit-identical to the plain runtime.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/exec/exec.h"
#include "src/gpusim/faults.h"
#include "src/plan/specialize.h"
#include "src/support/diag.h"
#include "src/support/sync.h"

namespace incflat {

/// Cooperative end-to-end cancellation: an optional wall-clock deadline
/// plus an externally flippable flag, checked at safe points (between
/// kernel launches, between batch tickets, between tuner evaluations).
/// The serve layer mints one per request carrying a "deadline_ms" budget
/// and threads it client -> scheduler -> batch leader -> TieredRuntime, so
/// an expired request is answered "timeout" at the next check instead of
/// burning a worker to compute an answer nobody is waiting for.
///
/// Thread-safe: cancel() may race expired() from any thread.  The default
/// token never expires and costs one relaxed load per check.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  /// A token expiring `ms` from now (ms <= 0 = already expired).  Tokens
  /// are neither copyable nor movable (the flag is shared by address);
  /// share one via shared_ptr when several holders need it.
  explicit CancelToken(double deadline_ms) { set_deadline_ms(deadline_ms); }

  void set_deadline(Clock::time_point tp) { deadline_ = tp; }
  void set_deadline_ms(double ms) {
    deadline_ = Clock::now() + std::chrono::microseconds(
                                   static_cast<int64_t>(ms * 1000.0));
  }

  /// Flip the flag; every subsequent expired() answers true.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Deadline passed or cancel() called.
  bool expired() const {
    return cancel_requested() ||
           (deadline_ != Clock::time_point::max() &&
            Clock::now() >= deadline_);
  }

  /// Milliseconds left before the deadline; negative once expired, and a
  /// very large value when the token has no deadline (callers clamp).
  double remaining_ms() const {
    if (cancel_requested()) return -1;
    if (deadline_ == Clock::time_point::max()) return 1e18;
    return std::chrono::duration<double, std::milli>(deadline_ -
                                                     Clock::now())
        .count();
  }

 private:
  std::atomic<bool> cancelled_{false};
  Clock::time_point deadline_ = Clock::time_point::max();
};

/// Retry / timeout / degradation budgets for one run.
struct RunPolicy {
  /// Total attempts per launch (first try + retries).
  int max_attempts = 4;
  /// Backoff before retry k (1-based): backoff_us * 2^(k-1), capped.
  double backoff_us = 50.0;
  double backoff_cap_us = 5000.0;
  /// Per-kernel timeout in simulated microseconds; 0 disables.  A kernel
  /// whose fault-free time already exceeds it can never finish: that is a
  /// persistent fault (degrade immediately, no retries).
  double kernel_timeout_us = 0;
  /// Maximum guard degradations before the run is declared failed.
  int max_degradations = 16;
  /// Optional cooperative cancellation: checked at pass start and
  /// periodically between launches.  An expired token aborts the run with
  /// ok=false, cancelled=true and a "deadline-exceeded" Diagnostic — no
  /// degradation, no speculation impact.  Not owned; the caller keeps the
  /// token alive for the duration of the run.  nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Parse a `--run-policy` SPEC: comma-separated `key=value` with keys
/// retries (extra attempts after the first), backoff, backoff-cap, timeout
/// (microseconds) and degradations.  Throws IoError on malformed specs.
RunPolicy parse_run_policy(const std::string& spec);

/// One-line canonical rendering of a policy.
std::string run_policy_str(const RunPolicy& policy);

/// One fault observed during a run, and what the executor did about it.
struct FaultEvent {
  int64_t launch = 0;     // FaultPlan consultation index
  std::string kernel;     // label of the faulting kernel
  FaultKind kind = FaultKind::None;
  int attempt = 0;        // 1-based attempt that faulted; 0 = policy timeout
  std::string action;     // "retry" | "degrade" | "abort"
  std::string threshold;  // guard forced off (action == "degrade")
};

/// Full report of one fault-injected run.
struct RunOutcome {
  bool ok = false;
  /// The run was abandoned because its CancelToken expired (deadline or
  /// explicit cancel) — a scheduling outcome, not an execution fault:
  /// cancelled runs carry a "deadline-exceeded" Diagnostic and never count
  /// against speculation (the tiered runtime keeps its specialized plan).
  bool cancelled = false;
  /// Fault-free estimate under the final (possibly degraded) thresholds.
  RunEstimate estimate;
  /// Total simulated wall time: estimate.time_us plus every failed attempt,
  /// backoff wait and abandoned partial run.
  double time_us = 0;
  double overhead_us = 0;  // time_us - estimate.time_us
  int faults = 0;
  int retries = 0;
  int degradations = 0;
  std::vector<FaultEvent> events;
  /// Thresholds forced off, in degradation order.
  std::vector<std::string> degraded;
  /// Effective assignment after degradation; running the interpreter under
  /// it yields values bit-identical to the fault-free run.
  ThresholdEnv thresholds;
  /// Set when !ok: why no surviving version could complete the run.
  std::optional<Diagnostic> error;
};

/// Execute the kernel plan's launch schedule (plan_launch_schedule) on
/// `dev` against `faults` under `policy`.  Never throws on injected faults
/// — an unrecoverable run reports ok=false with a structured Diagnostic.
/// The FaultPlan advances monotonically across retries and restarts (one
/// consultation per launch attempt), so a given plan yields one
/// deterministic outcome.
RunOutcome run_with_faults(const DeviceProfile& dev, const KernelPlan& plan,
                           const SizeEnv& sizes,
                           const ThresholdEnv& thresholds, FaultPlan& faults,
                           const RunPolicy& policy = {});

/// Same, over a compiled program's plan.
RunOutcome run_with_faults(const DeviceProfile& dev, const Compiled& c,
                           const SizeEnv& sizes,
                           const ThresholdEnv& thresholds, FaultPlan& faults,
                           const RunPolicy& policy = {});

/// One-line human-readable outcome summary.
std::string outcome_str(const RunOutcome& o);

// ---------------------------------------------------------------------------
// Tiered execution.

/// Knobs of the tiered runtime.
struct TierPolicy {
  /// Record guard decisions of successful, non-degraded tree runs.
  bool profile = true;
  /// Attempt specialization once a full stability window has been profiled
  /// (implies profiling is useful; with profile=false nothing ever
  /// stabilizes and the tree tier runs forever — the compatibility mode).
  bool specialize = true;
  /// Consecutive identical decisions every reachable guard needs before the
  /// plan may specialize — and, after a deoptimization, needs *again*
  /// (streaks reset on every deopt, damping specialize/deopt thrash).
  int64_t hot_runs = 8;
  /// Fault policy for both tiers.
  RunPolicy run;
};

/// Lifetime tallies of one TieredRuntime.
struct TierStats {
  int64_t tree_runs = 0;        // runs executed by tree descent
  int64_t spec_runs = 0;        // runs executed by the specialized schedule
  int64_t specializations = 0;  // specialized plans built
  int64_t deopts = 0;           // deoptimizations (any reason)
  int64_t invalidations = 0;    // specialized plans discarded
  std::string last_deopt;       // reason of the most recent deopt
};

/// One tiered run: the underlying outcome plus which tier produced it.
struct TieredOutcome {
  RunOutcome run;
  bool specialized = false;  // the specialized schedule ran to completion
  bool deopted = false;      // this run deoptimized (reason below)
  std::string deopt_reason;
};

/// Profile-guided two-tier executor for one plan on one device.  Not
/// thread-safe; holds a reference to the plan (caller keeps it alive).
/// "Not thread-safe" is *enforced*, not just documented: run() enters a
/// sync::ExclusiveRegion, so two threads racing into one runtime — the bug
/// shape the serve layer's batch-leader protocol exists to prevent — fail
/// loudly with std::logic_error instead of corrupting profile state.
class TieredRuntime {
 public:
  TieredRuntime(const DeviceProfile& dev, const KernelPlan& plan,
                TierPolicy policy = {});

  /// Execute one dataset.  Dispatches to the specialized schedule when one
  /// exists and covers (thresholds match, shape guards pass); otherwise —
  /// or after a mid-run deoptimization — runs the guard tree with full
  /// fault degradation.  Estimates are bit-identical across tiers.
  /// `cancel` (optional, not owned, must outlive the call) aborts
  /// cooperatively once expired: the outcome reports run.cancelled and the
  /// speculation state is left untouched — a missed deadline says nothing
  /// about the specialized plan's validity.
  TieredOutcome run(const SizeEnv& sizes, const ThresholdEnv& thresholds,
                    FaultPlan& faults, const CancelToken* cancel = nullptr);

  /// Adopt a persisted profile (validated against the plan; throws IoError
  /// on mismatch).  Returns false — keeping a fresh profile — when the
  /// profile was recorded on a different device, whose guard decisions
  /// (workgroup-fit in particular) do not transfer.
  bool seed_profile(profile::ExecProfile p);

  const profile::ExecProfile& prof() const { return prof_; }
  /// The live specialized plan, or nullptr while on the tree tier.
  const spesh::SpecializedPlan* specialized() const {
    return spec_ ? &*spec_ : nullptr;
  }
  const TierStats& stats() const { return stats_; }

  /// Human-readable tier/deopt report (incflatc --deopt-stats).
  std::string deopt_stats() const;

 private:
  const PlanDatasetCache& cache_for(const SizeEnv& sizes);
  void invalidate();
  void deopt(TieredOutcome& t, const std::string& why);
  bool thresholds_match(const ThresholdEnv& thresholds) const;
  /// Runs the specialized schedule; false = persistent fault (already
  /// deoptimized; partial-run accounting is left in *attempt for the tree
  /// rerun to absorb).
  struct SpecAttempt {
    double wasted_us = 0;
    int faults = 0;
    int retries = 0;
    std::vector<FaultEvent> events;
  };
  bool run_specialized(TieredOutcome& t, const ThresholdEnv& thresholds,
                       FaultPlan& faults, SpecAttempt* attempt);

  DeviceProfile dev_;
  const KernelPlan& plan_;
  TierPolicy policy_;
  profile::ExecProfile prof_;
  std::optional<spesh::SpecializedPlan> spec_;
  TierStats stats_;
  // Single-entry dataset cache: steady-state streams reuse one shape.
  std::optional<SizeEnv> cache_sizes_;
  std::unique_ptr<PlanDatasetCache> cache_;
  // Dispatch state for (spec_, cache_): verdict + precompiled schedule,
  // rebuilt only when the shape or the specialization changes.
  std::unique_ptr<spesh::SpecDispatch> dispatch_;
  // Detects concurrent run() entry (this class is single-threaded by
  // contract); zero cost beyond one atomic exchange per run.
  sync::ExclusiveRegion excl_{"TieredRuntime"};
};

}  // namespace incflat
