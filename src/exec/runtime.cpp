#include "src/exec/runtime.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "src/support/error.h"
#include "src/support/str.h"
#include "src/support/trace.h"

namespace incflat {

namespace {

double parse_num(const std::string& key, const std::string& text) {
  try {
    size_t consumed = 0;
    const double v = std::stod(text, &consumed);
    if (consumed != text.size()) throw IoError("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw IoError("run-policy: bad value for '" + key + "': '" + text + "'");
  }
}

/// Simulated time one failed attempt burns before the fault is observed.
double attempt_cost(const DeviceProfile& dev, const RunPolicy& policy,
                    const LaunchInfo& li, FaultKind kind) {
  switch (kind) {
    case FaultKind::LaunchFailed:
      return dev.launch_overhead_us;  // the launch never started
    case FaultKind::LaunchTimeout:
      // Hung until the watchdog fired (or until it would have finished).
      return policy.kernel_timeout_us > 0 ? policy.kernel_timeout_us
                                          : li.time_us;
    case FaultKind::LocalAllocFailed:
      return dev.launch_overhead_us;  // rejected at allocation time
    case FaultKind::DeviceLost:
      return 10 * dev.launch_overhead_us;  // device reset round-trip
    case FaultKind::None:
      break;
  }
  return 0;
}

double backoff_for(const RunPolicy& policy, int retry_number) {
  double b = policy.backoff_us;
  for (int i = 1; i < retry_number; ++i) b = std::min(b * 2, policy.backoff_cap_us);
  return std::min(b, policy.backoff_cap_us);
}

/// How many launches may pass between CancelToken checks.  Checking every
/// launch would put a clock read on the hot path; every 16th bounds the
/// overshoot past a deadline to a handful of simulated kernels.
constexpr int kCancelCheckStride = 16;

/// Fill `out` as a cancelled (deadline-exceeded) result.  Cancellation is a
/// scheduling outcome, not an execution fault: no degradation happened and
/// none is implied, so callers must not treat it as plan invalidation.
void mark_cancelled(RunOutcome& out, double wasted) {
  Diagnostic d;
  d.severity = Severity::Error;
  d.check = "deadline-exceeded";
  d.context = "run";
  d.message = "run abandoned: the request's deadline expired mid-execution";
  out.error = d;
  out.ok = false;
  out.cancelled = true;
  out.time_us = wasted;
  out.overhead_us = wasted;
  if (trace::enabled()) trace::count("exec.cancelled_runs");
}

}  // namespace

RunOutcome run_with_faults(const DeviceProfile& dev, const KernelPlan& plan,
                           const SizeEnv& sizes,
                           const ThresholdEnv& thresholds, FaultPlan& faults,
                           const RunPolicy& policy) {
  trace::Span span("exec.run");
  RunOutcome out;
  out.thresholds = thresholds;

  const PlanDatasetCache cache(plan, dev, sizes);
  const auto final_estimate = [&]() {
    return plan_estimate(plan, cache, out.thresholds);
  };

  double wasted = 0;  // failed attempts, backoffs, abandoned partial runs

  const auto emit_counters = [&out] {
    if (!trace::enabled()) return;
    trace::count("exec.fault_runs");
    trace::count("exec.faults", out.faults);
    trace::count("exec.retries", out.retries);
    trace::count("exec.degradations", out.degradations);
  };

  const auto abort_run = [&](const LaunchInfo& li, FaultKind kind,
                             const std::string& why) {
    out.events.push_back(FaultEvent{faults.launches() - 1, li.what, kind, 0,
                                    "abort", ""});
    Diagnostic d;
    d.severity = Severity::Error;
    d.check = "fault-unrecoverable";
    d.context = "run";
    d.message = "kernel '" + li.what + "' failed persistently (" +
                fault_kind_name(kind) + ") and " + why;
    out.error = d;
    out.ok = false;
    out.estimate = final_estimate();
    out.time_us = wasted;
    out.overhead_us = wasted;
    emit_counters();
  };

  bool restart = true;
  int since_check = 0;
  while (restart) {
    restart = false;
    // Pass start is a natural cancellation point: a restart redoes the whole
    // schedule, the most expensive step an expired request could still take.
    if (policy.cancel && policy.cancel->expired()) {
      mark_cancelled(out, wasted);
      out.estimate = final_estimate();
      return out;
    }
    const std::vector<LaunchInfo> sched =
        plan_launch_schedule(plan, cache, out.thresholds);
    double completed = 0;  // progress of this pass, wasted if it restarts

    for (const LaunchInfo& li : sched) {
      if (policy.cancel && ++since_check >= kCancelCheckStride) {
        since_check = 0;
        if (policy.cancel->expired()) {
          mark_cancelled(out, wasted + completed);
          out.estimate = final_estimate();
          return out;
        }
      }
      // A kernel whose fault-free time already exceeds the per-kernel
      // timeout can never finish: persistent by policy, no launch consult.
      bool persistent = false;
      FaultKind kind = FaultKind::None;
      int attempt = 0;
      if (policy.kernel_timeout_us > 0 &&
          li.time_us > policy.kernel_timeout_us) {
        persistent = true;
        kind = FaultKind::LaunchTimeout;
        ++out.faults;
        wasted += policy.kernel_timeout_us;
      }
      while (!persistent) {
        ++attempt;
        kind = faults.next_launch();
        if (kind == FaultKind::None) break;  // the launch succeeded
        ++out.faults;
        wasted += attempt_cost(dev, policy, li, kind);
        if (kind == FaultKind::LocalAllocFailed ||
            attempt >= policy.max_attempts) {
          persistent = true;
          break;
        }
        ++out.retries;
        wasted += backoff_for(policy, attempt);
        out.events.push_back(FaultEvent{faults.launches() - 1, li.what, kind,
                                        attempt, "retry", ""});
      }
      if (!persistent) {
        completed += li.time_us;
        continue;
      }

      // Persistent fault: fall back to the next surviving guarded sibling
      // by forcing the innermost taken guard on this kernel's path off.
      wasted += completed;  // partial progress is thrown away
      const auto taken = std::find_if(
          li.guard_path.rbegin(), li.guard_path.rend(),
          [](const std::pair<std::string, bool>& g) { return g.second; });
      if (taken == li.guard_path.rend()) {
        abort_run(li, kind, "no surviving sibling version remains");
        return out;
      }
      if (out.degradations >= policy.max_degradations) {
        abort_run(li, kind, "the degradation budget is exhausted");
        return out;
      }
      out.thresholds.values[taken->first] = int64_t{1} << 62;
      ++out.degradations;
      out.degraded.push_back(taken->first);
      out.events.push_back(FaultEvent{faults.launches() - 1, li.what, kind,
                                      attempt, "degrade", taken->first});
      restart = true;
      break;
    }
  }

  out.ok = true;
  out.estimate = final_estimate();
  out.overhead_us = wasted;
  out.time_us = out.estimate.time_us + wasted;
  emit_counters();
  return out;
}

RunPolicy parse_run_policy(const std::string& spec) {
  RunPolicy p;
  if (spec.empty() || spec == "default") return p;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw IoError("run-policy: expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const double v = parse_num(key, item.substr(eq + 1));
    if (key == "retries") {
      if (v < 0 || v != static_cast<int>(v)) {
        throw IoError("run-policy: retries must be a non-negative integer");
      }
      p.max_attempts = 1 + static_cast<int>(v);
    } else if (key == "backoff") {
      if (v < 0) throw IoError("run-policy: backoff must be >= 0");
      p.backoff_us = v;
    } else if (key == "backoff-cap") {
      if (v < 0) throw IoError("run-policy: backoff-cap must be >= 0");
      p.backoff_cap_us = v;
    } else if (key == "timeout") {
      if (v < 0) throw IoError("run-policy: timeout must be >= 0");
      p.kernel_timeout_us = v;
    } else if (key == "degradations") {
      if (v < 0 || v != static_cast<int>(v)) {
        throw IoError(
            "run-policy: degradations must be a non-negative integer");
      }
      p.max_degradations = static_cast<int>(v);
    } else {
      throw IoError("run-policy: unknown key '" + key + "'");
    }
  }
  return p;
}

std::string run_policy_str(const RunPolicy& policy) {
  std::ostringstream os;
  os << "retries=" << (policy.max_attempts - 1)
     << ",backoff=" << fmt_double(policy.backoff_us, 1)
     << ",backoff-cap=" << fmt_double(policy.backoff_cap_us, 1)
     << ",timeout=" << fmt_double(policy.kernel_timeout_us, 1)
     << ",degradations=" << policy.max_degradations;
  return os.str();
}

RunOutcome run_with_faults(const DeviceProfile& dev, const Compiled& c,
                           const SizeEnv& sizes,
                           const ThresholdEnv& thresholds, FaultPlan& faults,
                           const RunPolicy& policy) {
  return run_with_faults(dev, *c.plan, sizes, thresholds, faults, policy);
}

// ---------------------------------------------------------------------------
// Tiered execution.

TieredRuntime::TieredRuntime(const DeviceProfile& dev, const KernelPlan& plan,
                             TierPolicy policy)
    : dev_(dev),
      plan_(plan),
      policy_(policy),
      prof_(profile::make_profile(plan, plan.program.name, dev.name)) {}

bool TieredRuntime::seed_profile(profile::ExecProfile p) {
  profile::check_profile(p, plan_);
  if (p.device != dev_.name) return false;
  prof_ = std::move(p);
  return true;
}

const PlanDatasetCache& TieredRuntime::cache_for(const SizeEnv& sizes) {
  if (!cache_ || !cache_sizes_ || *cache_sizes_ != sizes) {
    cache_ = std::make_unique<PlanDatasetCache>(plan_, dev_, sizes);
    cache_sizes_ = sizes;
    dispatch_.reset();
  }
  return *cache_;
}

void TieredRuntime::invalidate() {
  dispatch_.reset();
  if (!spec_) return;
  spec_.reset();
  ++stats_.invalidations;
  trace::count("spesh.invalidations");
}

void TieredRuntime::deopt(TieredOutcome& t, const std::string& why) {
  t.deopted = true;
  t.deopt_reason = why;
  ++stats_.deopts;
  stats_.last_deopt = why;
  ++prof_.deopts;
  // Re-specializing requires a fresh stability window: stale streaks from
  // before the deopt must not immediately re-trigger the same speculation.
  profile::reset_streaks(prof_);
  invalidate();
  trace::count("exec.deopts");
}

bool TieredRuntime::thresholds_match(const ThresholdEnv& thresholds) const {
  for (const std::string& name : plan_.thresholds) {
    if (spec_->thresholds.get(name) != thresholds.get(name)) return false;
  }
  return true;
}

bool TieredRuntime::run_specialized(TieredOutcome& t,
                                    const ThresholdEnv& thresholds,
                                    FaultPlan& faults, SpecAttempt* attempt) {
  // The dispatch check already verified and precompiled this schedule.
  const std::vector<LaunchInfo>& sched = dispatch_->schedule();
  RunOutcome out;
  out.thresholds = thresholds;
  double wasted = 0;
  double completed = 0;
  int since_check = 0;
  for (const LaunchInfo& li : sched) {
    if (policy_.run.cancel && ++since_check >= kCancelCheckStride) {
      since_check = 0;
      if (policy_.run.cancel->expired()) {
        // Cancelled on the specialized tier: NOT a deopt — the plan is
        // still valid, the client just stopped waiting.
        mark_cancelled(out, wasted + completed);
        out.estimate = dispatch_->estimate();
        t.run = std::move(out);
        t.specialized = true;
        return true;
      }
    }
    bool persistent = false;
    FaultKind kind = FaultKind::None;
    int att = 0;
    if (policy_.run.kernel_timeout_us > 0 &&
        li.time_us > policy_.run.kernel_timeout_us) {
      persistent = true;
      kind = FaultKind::LaunchTimeout;
      ++out.faults;
      wasted += policy_.run.kernel_timeout_us;
    }
    while (!persistent) {
      ++att;
      kind = faults.next_launch();
      if (kind == FaultKind::None) break;
      ++out.faults;
      wasted += attempt_cost(dev_, policy_.run, li, kind);
      if (kind == FaultKind::LocalAllocFailed ||
          att >= policy_.run.max_attempts) {
        persistent = true;
        break;
      }
      ++out.retries;
      wasted += backoff_for(policy_.run, att);
      out.events.push_back(FaultEvent{faults.launches() - 1, li.what, kind,
                                      att, "retry", ""});
    }
    if (!persistent) {
      completed += li.time_us;
      continue;
    }
    // A persistent fault never degrades inside the specialized schedule —
    // degradation changes guard decisions, exactly what the specialization
    // froze.  Deoptimize: abandon the pass, let the tree tier (which owns
    // degradation) redo the run from scratch.
    wasted += completed;
    out.events.push_back(FaultEvent{faults.launches() - 1, li.what, kind, att,
                                    "deopt", ""});
    deopt(t, "persistent fault (" + std::string(fault_kind_name(kind)) +
                 ") in kernel '" + li.what + "' on the specialized tier");
    attempt->wasted_us = wasted;
    attempt->faults = out.faults;
    attempt->retries = out.retries;
    attempt->events = std::move(out.events);
    return false;
  }
  out.ok = true;
  out.estimate = dispatch_->estimate();
  out.overhead_us = wasted;
  out.time_us = out.estimate.time_us + wasted;
  if (trace::enabled()) {
    trace::count("exec.fault_runs");
    trace::count("exec.faults", out.faults);
    trace::count("exec.retries", out.retries);
  }
  t.run = std::move(out);
  t.specialized = true;
  return true;
}

TieredOutcome TieredRuntime::run(const SizeEnv& sizes,
                                 const ThresholdEnv& thresholds,
                                 FaultPlan& faults,
                                 const CancelToken* cancel) {
  const sync::ExclusiveRegion::Scope excl(excl_);
  // Safe to stash in the policy: ExclusiveRegion guarantees one run at a
  // time, and the token outlives the call by contract.
  policy_.run.cancel = cancel;
  TieredOutcome t;
  SpecAttempt attempt;
  if (spec_) {
    std::string why;
    if (!thresholds_match(thresholds)) {
      why = "threshold assignment no longer matches the frozen one";
    } else {
      const PlanDatasetCache& cache = cache_for(sizes);
      if (!dispatch_) {
        dispatch_ = std::make_unique<spesh::SpecDispatch>(plan_, *spec_, cache);
      }
      if (!dispatch_->pass()) {
        const spesh::ShapeGuard* failed = dispatch_->failed();
        why = failed ? "shape guard failed: " + failed->expr.str() +
                           " not in " + failed->iv.str() + " [" + failed->why +
                           "]"
                     : "shape guard failed";
      }
    }
    if (why.empty()) {
      if (run_specialized(t, thresholds, faults, &attempt)) {
        ++stats_.spec_runs;
        trace::count("spesh.dispatches");
        return t;
      }
      // Fell through: deoptimized mid-run; `attempt` carries the debris.
    } else {
      deopt(t, why);
    }
  }

  RunOutcome out =
      run_with_faults(dev_, plan_, sizes, thresholds, faults, policy_.run);
  ++stats_.tree_runs;
  // The abandoned specialized pass is part of this run's cost and report.
  out.faults += attempt.faults;
  out.retries += attempt.retries;
  out.events.insert(out.events.begin(),
                    std::make_move_iterator(attempt.events.begin()),
                    std::make_move_iterator(attempt.events.end()));
  out.overhead_us += attempt.wasted_us;
  out.time_us += attempt.wasted_us;

  if (out.cancelled) {
    // Deadline expiry says nothing about the plan: keep the specialized
    // plan and the streaks, record nothing (a partial run has no complete
    // decision vector to feed the profile).
  } else if (!out.ok || out.degradations > 0) {
    // A degraded run executed different code versions than the nominal
    // assignment selects: its decisions must not feed speculation, and any
    // standing speculation is no longer trustworthy.
    invalidate();
    profile::reset_streaks(prof_);
  } else if (policy_.profile) {
    profile::record_run(prof_, plan_, cache_for(sizes), thresholds);
    if (policy_.specialize && !spec_) {
      spesh::SpecializeOptions so;
      so.hot_runs = policy_.hot_runs;
      spesh::SpecializeResult res =
          spesh::specialize_plan(plan_, prof_, thresholds, dev_, so);
      if (res.ok) {
        spec_ = std::move(res.plan);
        dispatch_.reset();
        ++stats_.specializations;
      }
    }
  }
  t.run = std::move(out);
  return t;
}

std::string TieredRuntime::deopt_stats() const {
  std::ostringstream os;
  os << "tiers: " << stats_.tree_runs << " tree run(s), " << stats_.spec_runs
     << " specialized, " << stats_.specializations << " specialization(s), "
     << stats_.deopts << " deopt(s), " << stats_.invalidations
     << " invalidation(s)";
  if (!stats_.last_deopt.empty()) {
    os << "\nlast deopt: " << stats_.last_deopt;
  }
  if (spec_) {
    os << "\n" << spec_->str();
  }
  os << "\n" << prof_.str();
  return os.str();
}

std::string outcome_str(const RunOutcome& o) {
  std::ostringstream os;
  if (o.ok) {
    os << "ok in " << fmt_us(o.time_us);
    if (o.overhead_us > 0) {
      os << " (" << fmt_us(o.overhead_us) << " fault overhead)";
    }
  } else {
    os << "FAILED after " << fmt_us(o.time_us) << ": "
       << (o.error ? o.error->message : "unknown error");
  }
  os << "; " << o.faults << " fault(s), " << o.retries << " retr"
     << (o.retries == 1 ? "y" : "ies") << ", " << o.degradations
     << " degradation(s)";
  if (!o.degraded.empty()) {
    os << " [";
    for (size_t i = 0; i < o.degraded.size(); ++i) {
      os << (i ? ", " : "") << o.degraded[i];
    }
    os << "]";
  }
  return os.str();
}

}  // namespace incflat
