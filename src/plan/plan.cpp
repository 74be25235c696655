#include "src/plan/plan.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "src/support/error.h"
#include "src/support/trace.h"

namespace incflat {

PlanDatasetCache::PlanDatasetCache(const KernelPlan& plan,
                                   const DeviceProfile& dev,
                                   const SizeEnv& sizes)
    : dev_(dev), sizes_(sizes), values_(plan.arena, dev, sizes) {
  if (trace::enabled()) trace::count("plan.dataset_caches");
  kernels_.resize(plan.kernels.size());
  for (size_t k = 0; k < plan.kernels.size(); ++k) {
    const KernelDesc& d = plan.kernels[k];
    PricedKernel& pk = kernels_[k];
    const bool ok = values_.is_valid(d.flops) && values_.is_valid(d.gbytes) &&
                    values_.is_valid(d.lbytes) && values_.is_valid(d.threads) &&
                    (d.fallback < 0 || values_.is_valid(d.fallback));
    if (!ok) continue;
    pk.work.flops = values_.get_f(d.flops);
    pk.work.gbytes = values_.get_f(d.gbytes);
    pk.work.lbytes = values_.get_f(d.lbytes);
    pk.threads = values_.get_i(d.threads);
    pk.fallback = d.fallback >= 0 && values_.get_i(d.fallback) != 0;
    pk.time_us = roofline_time(dev_, pk.work, pk.threads, d.launches);
    pk.valid = true;
  }
  guards_.resize(plan.guards.size());
  for (size_t g = 0; g < plan.guards.size(); ++g) {
    const GuardInfo& gi = plan.guards[g];
    GuardVals& gv = guards_[g];
    if (!gi.fit.alts.empty()) {
      try {
        gv.fit_fail = gi.fit.eval(sizes_) > dev_.max_group_size;
      } catch (const EvalError&) {
        gv.error = true;
      }
    }
    if (!gv.error) {
      try {
        gv.par = gi.par.eval(sizes_);
      } catch (const EvalError&) {
        // Only an error if the fit check does not already reject the guard
        // (the reference walker short-circuits on fit failure).
        if (!gv.fit_fail) gv.error = true;
      }
    }
  }
}

const PlanDatasetCache::PricedKernel& PlanDatasetCache::kernel(int k) const {
  const PricedKernel& pk = kernels_[static_cast<size_t>(k)];
  if (!pk.valid) {
    throw EvalError("plan: kernel cost uses an unbound size variable");
  }
  return pk;
}

PlanDatasetCache::GuardObs PlanDatasetCache::guard_obs(int guard_ix) const {
  const GuardVals& gv = guards_[static_cast<size_t>(guard_ix)];
  return GuardObs{gv.par, gv.fit_fail, gv.error};
}

bool PlanDatasetCache::guard_taken(int guard_ix, int64_t threshold_value) const {
  const GuardVals& gv = guards_[static_cast<size_t>(guard_ix)];
  if (gv.error) {
    throw EvalError("plan: guard size expression uses an unbound variable");
  }
  if (gv.fit_fail) return false;
  return gv.par >= threshold_value;
}

namespace {

struct Traversal {
  const KernelPlan& plan;
  const PlanDatasetCache& cache;
  const ThresholdEnv& thr;
  PathSig* sig = nullptr;

  // Evaluates node `id`, returning its simulated-time contribution.  When
  // `out` is non-null the kernel/guard report vectors and work totals are
  // accumulated with exactly the reference walker's operation order, so the
  // resulting RunEstimate is bit-identical to estimate_run's.
  double eval(int id, RunEstimate* out) {
    const PlanNode& n = plan.nodes[static_cast<size_t>(id)];
    switch (n.kind) {
      case PlanNode::Kind::Block: {
        double t = 0;
        for (const PlanNode::Step& s : n.steps) {
          if (s.is_kernel) {
            const KernelDesc& d = plan.kernels[static_cast<size_t>(s.index)];
            const auto& pk = cache.kernel(s.index);
            if (out) {
              out->kernel_launches += d.launches;
              out->total += pk.work;
              out->kernels.push_back(
                  KernelCost{d.what, pk.time_us, pk.threads, pk.work,
                             pk.fallback});
            }
            t += pk.time_us;
          } else {
            t += eval(s.index, out);
          }
        }
        return t;
      }
      case PlanNode::Kind::Guard: {
        const GuardInfo& g = plan.guards[static_cast<size_t>(n.guard)];
        const bool taken = cache.guard_taken(n.guard, thr.get(g.threshold));
        if (sig) sig->set(n.guard, taken);
        if (out) out->guards.emplace_back(g.threshold, taken);
        return eval(taken ? n.then_node : n.else_node, out);
      }
      case PlanNode::Kind::DataCond: {
        // The reference walker prices both branches with fresh sub-walkers and
        // merges the worse one's report.
        RunEstimate ea, eb;
        const double ta = eval(n.then_node, out ? &ea : nullptr);
        const double tb = eval(n.else_node, out ? &eb : nullptr);
        if (out) {
          RunEstimate& worse = ta >= tb ? ea : eb;
          out->kernel_launches += worse.kernel_launches;
          out->total += worse.total;
          out->kernels.insert(out->kernels.end(), worse.kernels.begin(),
                              worse.kernels.end());
          out->guards.insert(out->guards.end(), worse.guards.begin(),
                             worse.guards.end());
        }
        return std::max(ta, tb);
      }
      case PlanNode::Kind::Scale: {
        const int64_t count = cache.values().get_i(n.count);
        const double trips = static_cast<double>(count);
        if (!out) return eval(n.child, nullptr) * trips;
        const int64_t k0 = out->kernel_launches;
        const Work w0 = out->total;
        const size_t kc0 = out->kernels.size();
        const double body_t = eval(n.child, out);
        out->kernel_launches =
            k0 + (out->kernel_launches - k0) * static_cast<int64_t>(trips);
        Work dw = out->total;
        dw.flops = w0.flops + (dw.flops - w0.flops) * trips;
        dw.gbytes = w0.gbytes + (dw.gbytes - w0.gbytes) * trips;
        dw.lbytes = w0.lbytes + (dw.lbytes - w0.lbytes) * trips;
        out->total = dw;
        for (size_t k = kc0; k < out->kernels.size(); ++k) {
          out->kernels[k].what +=
              " x" + std::to_string(static_cast<int64_t>(trips));
        }
        return body_t * trips;
      }
    }
    INCFLAT_FAIL("plan: unknown node kind");
  }
};

}  // namespace

RunEstimate plan_estimate(const KernelPlan& plan, const PlanDatasetCache& cache,
                          const ThresholdEnv& thresholds) {
  RunEstimate out;
  Traversal tr{plan, cache, thresholds, nullptr};
  out.time_us = tr.eval(plan.root, &out);
  return out;
}

double plan_cost(const KernelPlan& plan, const PlanDatasetCache& cache,
                 const ThresholdEnv& thresholds, PathSig* sig) {
  Traversal tr{plan, cache, thresholds, sig};
  return tr.eval(plan.root, nullptr);
}

std::vector<LaunchInfo> plan_launch_schedule(const KernelPlan& plan,
                                             const PlanDatasetCache& cache,
                                             const ThresholdEnv& thresholds) {
  std::vector<LaunchInfo> out;
  std::vector<std::pair<std::string, bool>> path;
  // Walks node `id`, appending its launches to `sched` and returning its
  // simulated time (the same arithmetic as Traversal::eval, so entry times
  // sum to plan_cost).
  const std::function<double(int, std::vector<LaunchInfo>&)> walk =
      [&](int id, std::vector<LaunchInfo>& sched) -> double {
    const PlanNode& n = plan.nodes[static_cast<size_t>(id)];
    switch (n.kind) {
      case PlanNode::Kind::Block: {
        double t = 0;
        for (const PlanNode::Step& s : n.steps) {
          if (s.is_kernel) {
            const KernelDesc& d = plan.kernels[static_cast<size_t>(s.index)];
            const auto& pk = cache.kernel(s.index);
            LaunchInfo li;
            li.kernel = s.index;
            li.what = d.what;
            li.time_us = pk.time_us;
            li.launches = d.launches;
            li.guard_path = path;
            sched.push_back(std::move(li));
            t += pk.time_us;
          } else {
            t += walk(s.index, sched);
          }
        }
        return t;
      }
      case PlanNode::Kind::Guard: {
        const GuardInfo& g = plan.guards[static_cast<size_t>(n.guard)];
        const bool taken = cache.guard_taken(n.guard, thresholds.get(g.threshold));
        path.emplace_back(g.threshold, taken);
        const double t = walk(taken ? n.then_node : n.else_node, sched);
        path.pop_back();
        return t;
      }
      case PlanNode::Kind::DataCond: {
        // The estimate merges the worse branch's report; the schedule takes
        // the same branch (a deterministic stand-in for the data-dependent
        // choice a real run would make).
        std::vector<LaunchInfo> sa, sb;
        const double ta = walk(n.then_node, sa);
        const double tb = walk(n.else_node, sb);
        std::vector<LaunchInfo>& worse = ta >= tb ? sa : sb;
        sched.insert(sched.end(), std::make_move_iterator(worse.begin()),
                     std::make_move_iterator(worse.end()));
        return std::max(ta, tb);
      }
      case PlanNode::Kind::Scale: {
        const int64_t count = cache.values().get_i(n.count);
        std::vector<LaunchInfo> body;
        const double body_t = walk(n.child, body);
        for (LaunchInfo& li : body) {
          li.time_us *= static_cast<double>(count);
          li.launches *= count;
          li.what += " x" + std::to_string(count);
          sched.push_back(std::move(li));
        }
        return body_t * static_cast<double>(count);
      }
    }
    INCFLAT_FAIL("plan: unknown node kind");
  };
  walk(plan.root, out);
  return out;
}

RunEstimate plan_estimate_run(const KernelPlan& plan, const DeviceProfile& dev,
                              const SizeEnv& sizes,
                              const ThresholdEnv& thresholds) {
  PlanDatasetCache cache(plan, dev, sizes);
  return plan_estimate(plan, cache, thresholds);
}

std::string plan_stats(const KernelPlan& plan) {
  std::ostringstream os;
  os << "plan: " << plan.nodes.size() << " tree nodes, " << plan.guards.size()
     << " guards, " << plan.kernels.size() << " kernels, "
     << plan.arena.size() << " cost-expression nodes";
  return os.str();
}

}  // namespace incflat
