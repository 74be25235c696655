#include "src/plan/specialize.h"

#include <functional>
#include <map>
#include <sstream>
#include <utility>

#include "src/support/error.h"
#include "src/support/trace.h"

namespace incflat {
namespace spesh {

using analysis::GuardDecision;
using analysis::GuardFact;
using analysis::GuardFacts;
using analysis::IntInterval;

namespace {

/// Accumulates shape guards keyed by operand-expression text, conjoining
/// repeated constraints on the same operand via interval meet.
struct GuardSet {
  std::map<std::string, size_t> by_expr;
  std::vector<ShapeGuard> guards;
  bool contradictory = false;

  void require(const SizeExpr& expr, const IntInterval& iv,
               const std::string& why) {
    const std::string key = expr.str();
    const auto it = by_expr.find(key);
    if (it == by_expr.end()) {
      by_expr.emplace(key, guards.size());
      guards.push_back(ShapeGuard{expr, iv, why});
      return;
    }
    ShapeGuard& g = guards[it->second];
    bool empty = false;
    g.iv = analysis::interval_meet(g.iv, iv, &empty);
    if (empty) contradictory = true;
    g.why += "; " + why;
  }
};

struct Specializer {
  const KernelPlan& plan;
  const profile::ExecProfile& prof;
  const ThresholdEnv& thr;
  const analysis::AnalysisLimits lim;
  const SpecializeOptions& opts;

  SpecializedPlan out;
  GuardSet shape;
  GuardFacts facts;  // decisions of already-folded guards, run-wide
  std::string refusal;

  bool walk(int id) {  // NOLINT(misc-no-recursion)
    const PlanNode& n = plan.nodes[static_cast<size_t>(id)];
    switch (n.kind) {
      case PlanNode::Kind::Block: {
        out.ops.push_back(SpecOp{SpecOp::Kind::BlockBegin, -1, false});
        for (const PlanNode::Step& s : n.steps) {
          if (s.is_kernel) {
            out.ops.push_back(SpecOp{SpecOp::Kind::Kernel, s.index, false});
          } else if (!walk(s.index)) {
            return false;
          }
        }
        out.ops.push_back(SpecOp{SpecOp::Kind::BlockEnd, -1, false});
        return true;
      }
      case PlanNode::Kind::Guard:
        return fold_guard(n);
      case PlanNode::Kind::DataCond:
        // Which branch the estimate merges is price- (hence dataset-)
        // dependent; a straight-line schedule cannot commit to either.
        refusal = "data-dependent branch reachable under the folds";
        return false;
      case PlanNode::Kind::Scale: {
        out.ops.push_back(SpecOp{SpecOp::Kind::ScaleBegin, n.count, false});
        if (!walk(n.child)) return false;
        out.ops.push_back(SpecOp{SpecOp::Kind::ScaleEnd, n.count, false});
        return true;
      }
    }
    INCFLAT_FAIL("spesh: unknown node kind");
  }

  bool fold_guard(const PlanNode& n) {  // NOLINT(misc-no-recursion)
    const GuardInfo& g = plan.guards[static_cast<size_t>(n.guard)];
    const profile::GuardProfile& gp =
        prof.guards[static_cast<size_t>(n.guard)];
    const int64_t t = thr.get(g.threshold);

    // Dominance first: a decision decide_guard derives from the speculated
    // decisions of enclosing folds under EMPTY size bounds holds for every
    // dataset (not just in-bounds ones), so it needs no runtime check.
    const ThresholdCmpE tc{g.threshold, g.par, g.fit};
    const GuardDecision d = analysis::decide_guard(tc, lim, SizeBounds{}, facts);
    bool taken = false;
    if (d != GuardDecision::Unknown) {
      taken = d == GuardDecision::AlwaysTrue;
      out.elided_guards.push_back(n.guard);
    } else if (gp.streak >= opts.hot_runs) {
      taken = gp.streak_taken;
      const std::string gname =
          "guard " + std::to_string(n.guard) + " (" + g.threshold + ")";
      if (taken) {
        // Taken needs both halves of guard_taken: no fit failure, and
        // par >= t.  (Par values are >= 1, so the lower bound never makes
        // the par operand unevaluable where the tree walk tolerated it.)
        if (!g.fit.alts.empty()) {
          shape.require(g.fit, IntInterval::at_most(lim.max_group_size),
                        gname + " taken: fit");
        }
        shape.require(g.par, IntInterval::at_least(t), gname + " taken: par");
      } else if (gp.last_fit_fail) {
        shape.require(g.fit, IntInterval::at_least(lim.max_group_size + 1),
                      gname + " not taken: fit overflow");
      } else {
        shape.require(g.par, IntInterval::at_most(t - 1),
                      gname + " not taken: par");
      }
      out.folded_guards.push_back(n.guard);
    } else {
      refusal = "guard " + std::to_string(n.guard) + " (" + g.threshold +
                ") not stable: streak " + std::to_string(gp.streak) + " < " +
                std::to_string(opts.hot_runs);
      return false;
    }

    out.ops.push_back(SpecOp{SpecOp::Kind::Guard, n.guard, taken});
    // Run-wide fact: every guard this walk visits is on the one executed
    // path, so earlier decisions constrain later guards over the same
    // threshold parameter regardless of nesting.
    facts[g.threshold].push_back(GuardFact{g.par, g.fit, taken});
    return walk(taken ? n.then_node : n.else_node);
  }
};

}  // namespace

SpecializeResult specialize_plan(const KernelPlan& plan,
                                 const profile::ExecProfile& prof,
                                 const ThresholdEnv& thresholds,
                                 const DeviceProfile& dev,
                                 const SpecializeOptions& opts) {
  SpecializeResult res;
  profile::check_profile(prof, plan);
  if (prof.device != dev.name) {
    res.reason = "profile is for device '" + prof.device + "', not '" +
                 dev.name + "'";
    return res;
  }
  Specializer sp{plan, prof, thresholds, analysis::limits_for(dev), opts,
                 {},   {},   {},         {}};
  if (!sp.walk(plan.root)) {
    res.reason = sp.refusal;
    trace::count("spesh.refusals");
    return res;
  }
  if (sp.shape.contradictory) {
    res.reason = "contradictory shape guards (profile disagrees with itself)";
    trace::count("spesh.refusals");
    return res;
  }
  res.ok = true;
  res.plan = std::move(sp.out);
  res.plan.program = prof.program;
  res.plan.device = dev.name;
  res.plan.thresholds = thresholds;
  res.plan.shape_guards = std::move(sp.shape.guards);
  trace::count("spesh.specializations");
  trace::count("spesh.guards_folded",
               static_cast<int64_t>(res.plan.folded_guards.size()));
  trace::count("spesh.guards_elided",
               static_cast<int64_t>(res.plan.elided_guards.size()));
  return res;
}

bool shape_guards_pass(const SpecializedPlan& sp, const SizeEnv& sizes,
                       const ShapeGuard** failed) {
  if (failed) *failed = nullptr;
  for (const ShapeGuard& g : sp.shape_guards) {
    bool ok = false;
    try {
      ok = g.iv.contains(g.expr.eval(sizes));
    } catch (const EvalError&) {
      ok = false;  // unevaluable operand: let the tree tier handle it
    }
    if (!ok) {
      if (failed) *failed = &g;
      return false;
    }
  }
  return true;
}

namespace {

/// Straight-line replay engine.  The frame stack reproduces the recursive
/// walk's accumulator nesting so floating-point sums associate identically
/// (bit-identity with plan_estimate / plan_launch_schedule).
struct Replay {
  const KernelPlan& plan;
  const PlanDatasetCache& cache;
  RunEstimate* out;                 // estimate mode
  std::vector<LaunchInfo>* sched;   // schedule mode

  struct Frame {
    double t = 0;
    // Scale frames: rollback snapshots mirroring Traversal::eval.
    int64_t count = 1;
    int64_t k0 = 0;
    Work w0;
    size_t kc0 = 0;
    size_t sc0 = 0;  // schedule mode: first entry of the scaled body
  };
  std::vector<Frame> stack = {Frame{}};

  double run(const SpecializedPlan& sp) {
    for (const SpecOp& op : sp.ops) step(op);
    INCFLAT_CHECK(stack.size() == 1, "spesh: unbalanced replay frames");
    return stack.back().t;
  }

  void step(const SpecOp& op) {
    switch (op.kind) {
      case SpecOp::Kind::Kernel: {
        const KernelDesc& d = plan.kernels[static_cast<size_t>(op.index)];
        const auto& pk = cache.kernel(op.index);
        if (out) {
          out->kernel_launches += d.launches;
          out->total += pk.work;
          out->kernels.push_back(KernelCost{d.what, pk.time_us, pk.threads,
                                            pk.work, pk.fallback});
        }
        if (sched) {
          LaunchInfo li;
          li.kernel = op.index;
          li.what = d.what;
          li.time_us = pk.time_us;
          li.launches = d.launches;
          sched->push_back(std::move(li));
        }
        stack.back().t += pk.time_us;
        return;
      }
      case SpecOp::Kind::Guard: {
        if (out) {
          const GuardInfo& g = plan.guards[static_cast<size_t>(op.index)];
          out->guards.emplace_back(g.threshold, op.taken);
        }
        return;
      }
      case SpecOp::Kind::BlockBegin:
        stack.push_back(Frame{});
        return;
      case SpecOp::Kind::BlockEnd: {
        const double t = stack.back().t;
        stack.pop_back();
        stack.back().t += t;
        return;
      }
      case SpecOp::Kind::ScaleBegin: {
        Frame f;
        f.count = cache.values().get_i(op.index);
        if (out) {
          f.k0 = out->kernel_launches;
          f.w0 = out->total;
          f.kc0 = out->kernels.size();
        }
        if (sched) f.sc0 = sched->size();
        stack.push_back(f);
        return;
      }
      case SpecOp::Kind::ScaleEnd: {
        const Frame f = stack.back();
        stack.pop_back();
        const double trips = static_cast<double>(f.count);
        if (out) {
          out->kernel_launches =
              f.k0 +
              (out->kernel_launches - f.k0) * static_cast<int64_t>(trips);
          Work dw = out->total;
          dw.flops = f.w0.flops + (dw.flops - f.w0.flops) * trips;
          dw.gbytes = f.w0.gbytes + (dw.gbytes - f.w0.gbytes) * trips;
          dw.lbytes = f.w0.lbytes + (dw.lbytes - f.w0.lbytes) * trips;
          out->total = dw;
          for (size_t k = f.kc0; k < out->kernels.size(); ++k) {
            out->kernels[k].what +=
                " x" + std::to_string(static_cast<int64_t>(trips));
          }
        }
        if (sched) {
          for (size_t k = f.sc0; k < sched->size(); ++k) {
            LaunchInfo& li = (*sched)[k];
            li.time_us *= static_cast<double>(f.count);
            li.launches *= f.count;
            li.what += " x" + std::to_string(f.count);
          }
        }
        stack.back().t += f.t * trips;
        return;
      }
    }
    INCFLAT_FAIL("spesh: unknown op kind");
  }
};

}  // namespace

RunEstimate spec_estimate(const KernelPlan& plan, const SpecializedPlan& sp,
                          const PlanDatasetCache& cache) {
  RunEstimate out;
  Replay r{plan, cache, &out, nullptr};
  out.time_us = r.run(sp);
  return out;
}

double spec_cost(const KernelPlan& plan, const SpecializedPlan& sp,
                 const PlanDatasetCache& cache) {
  Replay r{plan, cache, nullptr, nullptr};
  return r.run(sp);
}

std::vector<LaunchInfo> spec_launch_schedule(const KernelPlan& plan,
                                             const SpecializedPlan& sp,
                                             const PlanDatasetCache& cache) {
  std::vector<LaunchInfo> sched;
  Replay r{plan, cache, nullptr, &sched};
  r.run(sp);
  return sched;
}

SpecDispatch::SpecDispatch(const KernelPlan& plan, const SpecializedPlan& sp,
                           const PlanDatasetCache& cache) {
  pass_ = shape_guards_pass(sp, cache.sizes(), &failed_);
  if (!pass_) return;
  estimate_ = spec_estimate(plan, sp, cache);
  schedule_ = spec_launch_schedule(plan, sp, cache);
}

const RunEstimate& SpecDispatch::estimate() const {
  INCFLAT_CHECK(pass_, "spesh: estimate of a failed dispatch");
  return estimate_;
}

const std::vector<LaunchInfo>& SpecDispatch::schedule() const {
  INCFLAT_CHECK(pass_, "spesh: schedule of a failed dispatch");
  return schedule_;
}

std::string SpecializedPlan::str() const {
  std::ostringstream os;
  os << "spesh: " << program << " on " << device << ": " << ops.size()
     << " ops, " << folded_guards.size() << " guard(s) folded, "
     << elided_guards.size() << " elided, " << shape_guards.size()
     << " shape guard(s)";
  for (const ShapeGuard& g : shape_guards) {
    os << "\n  " << g.expr.str() << " in " << g.iv.str() << "  [" << g.why
       << "]";
  }
  return os.str();
}

}  // namespace spesh
}  // namespace incflat
