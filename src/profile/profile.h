// Execution profiles: what the guard tree actually did at run time.
//
// The paper's multi-versioned binary descends its threshold guard tree on
// every run; incremental flattening fixes thresholds once at tune time and
// never adapts online.  This layer records, per plan guard, which branch
// was taken and which Par(e) values were observed across runs — the raw
// material of the speculative specializer (src/plan/specialize.h), which
// folds guards that decided the same way for a full stability window into
// constants, and of the profile-seeded autotuner (thresholds whose guards a
// workload never reaches are pruned from the search).
//
// Recording is explicit and off the hot path: the tiered runtime
// (src/exec/runtime.h) calls record_run only when profiling is enabled, so
// a profile-off run costs nothing (the trace-counter idiom).  Profiles
// persist as JSON — the strict Json::parse reader with line-numbered
// errors, atomic tmp+rename saves — matching the tuning-file/journal
// conventions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/plan/plan.h"
#include "src/support/json.h"

namespace incflat {
namespace profile {

/// Per-guard observation history.  Aligned by index with
/// KernelPlan::guards; `threshold` repeats the guard's parameter name so a
/// loaded profile can be validated against the plan it claims to describe.
struct GuardProfile {
  std::string threshold;
  int64_t taken = 0;      // runs in which the guard evaluated true
  int64_t not_taken = 0;  // runs in which it evaluated false
  int64_t fit_fails = 0;  // not-taken verdicts caused by the fit bound
  /// Observed Par(e) range across all runs that evaluated the guard; valid
  /// only when par_seen (fit-failure short-circuits can leave Par unknown).
  bool par_seen = false;
  int64_t par_lo = 0;
  int64_t par_hi = 0;
  /// Length of the current run of identical decisions, and that decision.
  /// The specializer folds a guard only when streak >= its hot-run window.
  int64_t streak = 0;
  bool streak_taken = false;
  /// Whether the most recent not-taken verdict came from the fit bound
  /// (decides which shape guard the specializer emits for the fold).
  bool last_fit_fail = false;

  bool reached() const { return taken + not_taken > 0; }
  bool operator==(const GuardProfile& o) const;
};

/// One program's execution profile on one device.
struct ExecProfile {
  std::string program;  // plan program name, for identification only
  std::string device;   // guard fit decisions are device-dependent
  int64_t runs = 0;     // tree-tier runs recorded
  int64_t deopts = 0;   // deoptimizations observed (shape drift, faults)
  std::vector<GuardProfile> guards;  // aligned with KernelPlan::guards

  bool operator==(const ExecProfile& o) const;

  Json to_json() const;
  static ExecProfile from_json(const Json& j);

  /// Human-readable per-guard table (incflatc --deopt-stats).
  std::string str() const;
};

/// Fresh, empty profile shaped for `plan`.
ExecProfile make_profile(const KernelPlan& plan, const std::string& program,
                         const std::string& device);

/// Throws IoError when `p` does not describe `plan` (guard count or
/// threshold-name mismatch — a stale file from another program/version).
void check_profile(const ExecProfile& p, const KernelPlan& plan);

/// Record one tree descent's guard decisions under `thresholds` into `p`:
/// taken/not-taken tallies, observed Par ranges and decision streaks.  The
/// descent visits the guards a PathSig records (data-dependent branches
/// record both arms, exactly the guards the estimate evaluates).  The cache
/// must have been built for `plan`.
void record_run(ExecProfile& p, const KernelPlan& plan,
                const PlanDatasetCache& cache, const ThresholdEnv& thresholds);

/// Reset every guard's decision streak (keeps tallies and Par ranges): the
/// re-profiling window after a deoptimization or a fault degradation.
void reset_streaks(ExecProfile& p);

/// Atomic save (tmp + rename, like save_tuning): a crash mid-save leaves
/// the old complete file or a stray .tmp, never a torn profile.  Throws
/// IoError on failure.
void save_profile(const std::string& path, const ExecProfile& p);

/// Load a profile; throws IoError on missing files and on malformed JSON
/// (with the error's line and column) or schema violations.
ExecProfile load_profile(const std::string& path);

}  // namespace profile
}  // namespace incflat
