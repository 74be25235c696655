// Speculative plan specialization (the upper execution tier).
//
// A KernelPlan descends its threshold guard tree on every estimate.  When a
// workload's shapes are stable, every guard decides the same way run after
// run, and the descent — guard-operand lookups, branch dispatch, per-entry
// guard-path copies in the launch schedule — is pure overhead.  Following
// the spesh blueprint (profile, speculate, guard, deoptimize), this layer
// folds guards whose profiled decision streak reached the hot-run window
// into constants, producing a SpecializedPlan: a straight-line op list that
// replays the exact tree walk the fold selects, protected by a minimal set
// of *shape guards* — interval checks on the guard operands that certify
// the folds still hold for the dataset at hand.
//
// Two soundness rules keep specialized execution bit-identical to the tree:
//
//  * The op list preserves the tree walk's accumulation structure
//    (BlockBegin/End and ScaleBegin/End frames), so floating-point sums
//    associate exactly as in plan_estimate — spec_estimate is bitwise equal
//    to plan_estimate whenever the shape guards pass.
//
//  * Shape guards are derived per fold and merged by operand expression via
//    interval meet.  Folds that analysis::decide_guard can prove from the
//    speculated decisions of enclosing folds alone (dominance over the same
//    threshold parameter, under *empty* size bounds so the proof holds for
//    every dataset) need no shape guard at all — the guard is elided.
//
// Guards that never stabilized and data-dependent (worse-of-both) branches
// refuse specialization; the tree tier remains the sole authority for
// them.  Threshold values are frozen into the
// SpecializedPlan: dispatching under a different assignment (or device) is
// a deoptimization, handled by the tiered runtime (src/exec/runtime.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/range.h"
#include "src/plan/plan.h"
#include "src/profile/profile.h"

namespace incflat {
namespace spesh {

/// One dispatch-time check: `expr`, evaluated on the dataset's sizes, must
/// lie in `iv`.  `why` names the originating plan guard and fold direction
/// (for --deopt-stats and tests); merged checks concatenate their reasons.
struct ShapeGuard {
  SizeExpr expr;
  analysis::IntInterval iv;
  std::string why;
};

/// One step of the straight-line schedule.  Kernel/Guard ops mirror the
/// tree walk's report entries; Block and Scale frame ops replicate its
/// accumulator nesting (see the file comment on bit-identity).
struct SpecOp {
  enum class Kind {
    Kernel,      // index = KernelPlan::kernels entry
    Guard,       // index = KernelPlan::guards entry; taken = folded branch
    BlockBegin,  // push a fresh time accumulator
    BlockEnd,    // pop it into the enclosing frame
    ScaleBegin,  // index = CostArena node id of the trip count
    ScaleEnd,    // scale the frame by the trip count, apply " xN" suffixes
  };
  Kind kind = Kind::Kernel;
  int index = -1;
  bool taken = false;
};

/// A specialized (tier-2) plan: valid only for the device and frozen
/// threshold assignment it was built under, and only for datasets whose
/// shape guards all pass.
struct SpecializedPlan {
  std::string program;
  std::string device;       // DeviceProfile::name it was specialized for
  ThresholdEnv thresholds;  // frozen assignment
  std::vector<SpecOp> ops;
  std::vector<ShapeGuard> shape_guards;
  /// Plan-guard indices folded speculatively (shape-guard protected) and
  /// folded by dominance (elided, no runtime check) — stats surface them.
  std::vector<int> folded_guards;
  std::vector<int> elided_guards;

  std::string str() const;
};

struct SpecializeOptions {
  /// Consecutive identical decisions a guard needs before it may be folded
  /// (the spesh "hot" window).
  int64_t hot_runs = 8;
};

/// Outcome of a specialization attempt: either a plan, or the reason the
/// profile/plan refused one (unstable guard, data-dependent branch, ...).
struct SpecializeResult {
  bool ok = false;
  std::string reason;
  SpecializedPlan plan;
};

/// Try to specialize `plan` against the decision streaks in `prof` under
/// the frozen `thresholds` on `dev`.  Pure: consults only streaks, never
/// mutates the profile.  The profile must describe the plan (check_profile).
SpecializeResult specialize_plan(const KernelPlan& plan,
                                 const profile::ExecProfile& prof,
                                 const ThresholdEnv& thresholds,
                                 const DeviceProfile& dev,
                                 const SpecializeOptions& opts = {});

/// Dispatch check: every shape guard holds for `sizes`.  Returns false (and
/// points `*failed` at the offending guard, when non-null) on the first
/// violation or on an unevaluable operand — both deoptimize.
bool shape_guards_pass(const SpecializedPlan& sp, const SizeEnv& sizes,
                       const ShapeGuard** failed = nullptr);

/// Straight-line replay of the specialized schedule.  Preconditions: the
/// cache was built for `plan` and the same dataset/device the dispatch
/// check passed, and `sp` came from specialize_plan on `plan`.  Bit-identical
/// to plan_estimate / plan_cost under the frozen thresholds.
RunEstimate spec_estimate(const KernelPlan& plan, const SpecializedPlan& sp,
                          const PlanDatasetCache& cache);
double spec_cost(const KernelPlan& plan, const SpecializedPlan& sp,
                 const PlanDatasetCache& cache);

/// The specialized launch schedule: same entries, times and launch counts
/// as plan_launch_schedule, but with empty guard_path vectors — the guard
/// decisions are frozen into the plan, so nothing is copied per entry (the
/// cost plan_launch_schedule pays on every run; bench/bench_spesh.cpp).
std::vector<LaunchInfo> spec_launch_schedule(const KernelPlan& plan,
                                             const SpecializedPlan& sp,
                                             const PlanDatasetCache& cache);

/// Per-dataset dispatch state, built once when a specialized plan first
/// meets a dataset cache.  Verdict, estimate and schedule are all pure
/// functions of (plan, sp, cache), so a shape-stable stream pays them once:
/// every later covered run costs a verdict read plus a reference to the
/// precompiled schedule — the steady state bench/bench_spesh.cpp measures.
/// `sp` must outlive this object (failed() points into it).
class SpecDispatch {
 public:
  SpecDispatch(const KernelPlan& plan, const SpecializedPlan& sp,
               const PlanDatasetCache& cache);

  /// The shape-guard verdict for the cache's dataset.
  bool pass() const { return pass_; }
  /// The violated guard when !pass(); nullptr otherwise.
  const ShapeGuard* failed() const { return failed_; }
  /// Precompiled replay results; valid only when pass().
  const RunEstimate& estimate() const;
  const std::vector<LaunchInfo>& schedule() const;

 private:
  bool pass_ = false;
  const ShapeGuard* failed_ = nullptr;
  RunEstimate estimate_;
  std::vector<LaunchInfo> schedule_;
};

}  // namespace spesh
}  // namespace incflat
