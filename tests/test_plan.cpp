// Property tests for the plan layer (src/plan/): traversing a KernelPlan
// must reproduce the reference IR-walking cost model (gpusim::estimate_run)
// *bit for bit* — same code version selected, same RunEstimate down to the
// last ulp — across the whole benchmark suite, randomized dataset sizes and
// randomized threshold assignments, including the local-memory fallback
// path.  The walker is the oracle; the plan is the only production path,
// and a program outside its fragment is a compile error.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/flatten/flatten.h"
#include "src/ir/builder.h"
#include "src/ir/typecheck.h"
#include "src/ir/verify.h"
#include "src/pass/pass.h"
#include "src/plan/plan.h"
#include "src/support/rng.h"

namespace incflat {
namespace {

using namespace ib;

void expect_same_estimate(const RunEstimate& plan, const RunEstimate& walk,
                          const std::string& ctx) {
  EXPECT_EQ(plan.time_us, walk.time_us) << ctx;
  EXPECT_EQ(plan.kernel_launches, walk.kernel_launches) << ctx;
  EXPECT_EQ(plan.total.flops, walk.total.flops) << ctx;
  EXPECT_EQ(plan.total.gbytes, walk.total.gbytes) << ctx;
  EXPECT_EQ(plan.total.lbytes, walk.total.lbytes) << ctx;
  ASSERT_EQ(plan.kernels.size(), walk.kernels.size()) << ctx;
  for (size_t i = 0; i < plan.kernels.size(); ++i) {
    const std::string kctx = ctx + " kernel #" + std::to_string(i);
    EXPECT_EQ(plan.kernels[i].what, walk.kernels[i].what) << kctx;
    EXPECT_EQ(plan.kernels[i].time_us, walk.kernels[i].time_us) << kctx;
    EXPECT_EQ(plan.kernels[i].threads, walk.kernels[i].threads) << kctx;
    EXPECT_EQ(plan.kernels[i].work.flops, walk.kernels[i].work.flops) << kctx;
    EXPECT_EQ(plan.kernels[i].work.gbytes, walk.kernels[i].work.gbytes)
        << kctx;
    EXPECT_EQ(plan.kernels[i].work.lbytes, walk.kernels[i].work.lbytes)
        << kctx;
    EXPECT_EQ(plan.kernels[i].used_local_fallback,
              walk.kernels[i].used_local_fallback)
        << kctx;
  }
  ASSERT_EQ(plan.guards.size(), walk.guards.size()) << ctx;
  for (size_t i = 0; i < plan.guards.size(); ++i) {
    EXPECT_EQ(plan.guards[i].first, walk.guards[i].first) << ctx;
    EXPECT_EQ(plan.guards[i].second, walk.guards[i].second) << ctx;
  }
}

/// Randomized threshold assignment over the registry's parameter names.
ThresholdEnv random_thresholds(const ThresholdRegistry& reg, Rng& rng) {
  ThresholdEnv env;
  for (const auto& ti : reg.all()) {
    if (rng.flip(0.3)) continue;  // leave some at the default
    env.values[ti.name] = int64_t{1} << rng.uniform_int(0, 24);
  }
  if (rng.flip(0.25)) env.default_threshold = int64_t{1} << 62;
  return env;
}

/// Perturb every size in the dataset by a random factor, keeping it >= 1.
SizeEnv perturb(const SizeEnv& sizes, Rng& rng) {
  SizeEnv out;
  for (const auto& [name, v] : sizes) {
    const int64_t factors[] = {1, 2, 3, 4, 8};
    int64_t nv = v * factors[rng.uniform_int(0, 4)];
    if (rng.flip(0.3)) nv = std::max<int64_t>(1, v / 2);
    out[name] = nv;
  }
  return out;
}

// The whole benchmark suite x all three flattening modes x randomized sizes
// and thresholds: plan estimates equal walker estimates exactly.
TEST(PlanLayer, MatchesWalkerAcrossSuite) {
  Rng rng(0x9a7e11);
  const std::vector<DeviceProfile> devices{device_k40(), device_vega64()};
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                             FlattenMode::Full}) {
      FlattenResult fr = flatten(b.program, mode);
      const KernelPlan plan = build_kernel_plan(fr.program);
      for (const auto& dev : devices) {
        for (const auto& d : b.datasets) {
          for (int round = 0; round < 3; ++round) {
            const SizeEnv sizes =
                round == 0 ? d.sizes : perturb(d.sizes, rng);
            const ThresholdEnv thr = random_thresholds(fr.thresholds, rng);
            const std::string ctx = name + "/" + mode_name(mode) + "/" +
                                    dev.name + "/" + d.name + " round " +
                                    std::to_string(round);
            const RunEstimate walk =
                estimate_run(dev, fr.program, sizes, thr);
            const RunEstimate via_plan =
                plan_estimate_run(plan, dev, sizes, thr);
            expect_same_estimate(via_plan, walk, ctx);

            // The tuner's scalar fast path agrees too.
            PlanDatasetCache cache(plan, dev, sizes);
            EXPECT_EQ(plan_cost(plan, cache, thr), walk.time_us) << ctx;
          }
        }
      }
    }
  }
}

// The local-memory fallback (paper Sec. 4.1): an intra-group kernel whose
// scratchpad need exceeds the device limit is repriced against global
// memory.  The plan bakes the spill condition into select nodes; the choice
// must match the walker on both sides of the boundary.
TEST(PlanLayer, LocalMemoryFallbackMatchesWalker) {
  Program p;
  p.name = "big_intra";
  p.inputs = {{"xss", Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")})}};
  p.body = map1(
      lam({ib::p("xs", Type())},
          let1("ss",
               scan(binlam("+", Scalar::F32), {cf32(0)}, {var("xs")}),
               scan(binlam("+", Scalar::F32), {cf32(0)}, {var("ss")}))),
      var("xss"));
  p = typecheck_program(std::move(p));
  FlattenResult inc = flatten(p, FlattenMode::Incremental);
  const KernelPlan plan = build_kernel_plan(inc.program);

  ThresholdEnv pick_middle;
  pick_middle.default_threshold = 1;
  for (const auto& ti : inc.thresholds.all()) {
    if (ti.name.find("outer") != std::string::npos) {
      pick_middle.values[ti.name] = int64_t{1} << 62;
    }
  }
  DeviceProfile fat = device_k40();
  fat.max_group_size = 1 << 22;
  for (const SizeEnv sizes :
       {SizeEnv{{"n", 64}, {"m", 512}}, SizeEnv{{"n", 4}, {"m", 1 << 20}}}) {
    const RunEstimate walk = estimate_run(fat, inc.program, sizes, pick_middle);
    const RunEstimate via_plan =
        plan_estimate_run(plan, fat, sizes, pick_middle);
    expect_same_estimate(via_plan, walk, "big_intra m=" +
                         std::to_string(sizes.at("m")));
  }
  // Sanity: the two datasets really are on opposite sides of the spill.
  const RunEstimate small =
      plan_estimate_run(plan, fat, {{"n", 64}, {"m", 512}}, pick_middle);
  const RunEstimate big =
      plan_estimate_run(plan, fat, {{"n", 4}, {"m", 1 << 20}}, pick_middle);
  bool small_fb = false, big_fb = false;
  for (const auto& k : small.kernels) small_fb |= k.used_local_fallback;
  for (const auto& k : big.kernels) big_fb |= k.used_local_fallback;
  EXPECT_FALSE(small_fb);
  EXPECT_TRUE(big_fb);
}

// Equal guard-path signatures must imply equal cost (the dedup soundness
// property the autotuner relies on, paper Sec. 4.2).
TEST(PlanLayer, SignatureDedupIsSound) {
  const Benchmark b = get_benchmark("matmul");
  FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
  const KernelPlan plan = build_kernel_plan(inc.program);
  const DeviceProfile dev = device_k40();
  Rng rng(0xdedc0de);
  for (const auto& d : b.datasets) {
    PlanDatasetCache cache(plan, dev, d.sizes);
    std::map<std::vector<uint64_t>, double> seen;
    int collisions = 0;
    for (int i = 0; i < 200; ++i) {
      const ThresholdEnv thr = random_thresholds(inc.thresholds, rng);
      PathSig sig(plan.guards.size());
      const double c = plan_cost(plan, cache, thr, &sig);
      auto [it, fresh] = seen.emplace(sig.bits, c);
      if (!fresh) {
        ++collisions;
        EXPECT_EQ(it->second, c) << d.name << " trial " << i;
      }
    }
    EXPECT_GT(collisions, 0) << d.name;  // the property was actually tested
  }
}

void expect_same_report(const TuningReport& a, const TuningReport& b,
                        const std::string& ctx) {
  EXPECT_EQ(a.best.values, b.best.values) << ctx;
  EXPECT_EQ(a.best.default_threshold, b.best.default_threshold) << ctx;
  EXPECT_EQ(a.best_cost_us, b.best_cost_us) << ctx;
  EXPECT_EQ(a.default_cost_us, b.default_cost_us) << ctx;
  EXPECT_EQ(a.trials, b.trials) << ctx;
  EXPECT_EQ(a.evaluations, b.evaluations) << ctx;
  EXPECT_EQ(a.dedup_hits, b.dedup_hits) << ctx;
  EXPECT_EQ(a.infeasible, b.infeasible) << ctx;
  EXPECT_EQ(a.journal_replayed, b.journal_replayed) << ctx;
  EXPECT_EQ(a.early_stopped, b.early_stopped) << ctx;
  EXPECT_EQ(a.profile_seeded, b.profile_seeded) << ctx;
  EXPECT_EQ(a.cold_pruned, b.cold_pruned) << ctx;
}

/// An exact search reports real costs: tuning_cost, the same weighted sum
/// priced by the reference IR walker, reprices the best and the default
/// assignment to the same bits.
void expect_reference_costs(const DeviceProfile& dev, const Program& p,
                            const std::vector<TuningDataset>& train,
                            const TuningReport& rep, const std::string& ctx) {
  EXPECT_EQ(rep.best_cost_us, tuning_cost(dev, p, train, rep.best)) << ctx;
  EXPECT_EQ(rep.default_cost_us, tuning_cost(dev, p, train, {})) << ctx;
}

// The tuner end to end against the reference cost function: every
// benchmark, both devices, several search seeds, stochastic and exhaustive.
// Exact searches must report costs tuning_cost reproduces bit for bit (and
// the Program overload must report exactly what the plan overload does);
// fault-injected searches (noise, failures and a candidate timeout) must be
// deterministic, a repeated call returning an identical report.
TEST(PlanLayer, TunerReportsReferenceCosts) {
  for (const std::string& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
    const KernelPlan plan = build_kernel_plan(inc.program);
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    for (const auto& dev : {device_k40(), device_vega64()}) {
      for (int s = 0; s < 3; ++s) {
        for (const bool faulty : {false, true}) {
          TunerOptions opts;
          opts.max_trials = 120;
          opts.seed = 0xf00dcafe + static_cast<uint64_t>(s);
          if (faulty) {
            opts.noise = 0.1;
            opts.failure_rate = 0.2;
            opts.measure_k = 3;
            opts.measure_seed = 0x5eed + static_cast<uint64_t>(s);
            opts.candidate_timeout_us = 10000;
          }
          const std::string ctx = name + "/" + dev.name + " seed " +
                                  std::to_string(s) +
                                  (faulty ? " faulty" : " exact");
          const TuningReport rep =
              autotune(dev, plan, inc.thresholds, train, opts);
          if (faulty) {
            expect_same_report(
                rep, autotune(dev, plan, inc.thresholds, train, opts), ctx);
          } else {
            expect_reference_costs(dev, inc.program, train, rep, ctx);
            expect_same_report(
                rep, autotune(dev, inc.program, inc.thresholds, train, opts),
                ctx);
          }
        }
      }
      const std::string ctx = name + "/" + dev.name + " exhaustive";
      const TuningReport rep =
          exhaustive_tune(dev, plan, inc.thresholds, train);
      expect_reference_costs(dev, inc.program, train, rep, ctx);
      expect_same_report(
          rep, exhaustive_tune(dev, inc.program, inc.thresholds, train), ctx);
    }
  }
}

// A threshold guard inside a data-dependent branch of an intra-group body
// has no tree representation (the branch is merged inside one kernel, a
// guard would fork it).  Such a program is a compile-time diagnostic, both
// from the builder and from the plan-build pass, never a silent slow path.
TEST(PlanLayer, GuardUnderDataDependentIntraGroupBranchIsACompileError) {
  const Type mat = Type::array(Scalar::F32, {Dim::v("n"), Dim::v("m")});
  const auto segred0 = [] {
    SegOpE so;
    so.op = SegOpE::Op::Red;
    so.level = 0;
    so.space = {SegBind{{"x"}, {"xs"}, Dim::v("m")}};
    so.combine = binlam("+", Scalar::F32);
    so.neutral = {cf32(0)};
    so.body = var("x");
    return mk(std::move(so));
  };
  ExprP guard = mk(ThresholdCmpE{"suff_intra_par_0", SizeExpr::of(Dim::v("m")),
                                 SizeExpr::of(Dim::v("m"))});
  ExprP seq = redomap(binlam("+", Scalar::F32),
                      lam({ib::p("x", Type::scalar(Scalar::F32))}, var("x")),
                      {cf32(0)}, {var("xs")});
  SegOpE outer;
  outer.op = SegOpE::Op::Map;
  outer.level = 1;
  outer.space = {SegBind{{"xs"}, {"xss"}, Dim::v("n")}};
  outer.body = iff(lt(index(var("xs"), {ci64(0)}), cf32(0)),
                   iff(guard, segred0(), seq), segred0());
  Program p;
  p.name = "guard_under_data_branch";
  p.inputs = {{"xss", mat}};
  p.body = mk(std::move(outer));

  const std::string reason =
      "threshold guard inside a data-dependent intra-group branch";
  try {
    build_kernel_plan(p);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.check(), "plan-unsupported");
    EXPECT_EQ(e.context(), "plan-build");
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }

  PipelineState st;
  st.program = p;
  PassManager pm;
  pm.add("plan-build");
  EXPECT_THROW(pm.run(st), VerifyError);
  EXPECT_EQ(st.plan, nullptr);
}

// A plan is built once and reused: mutating nothing between evaluations,
// repeated traversals of the same cache are stable.
TEST(PlanLayer, RepeatedTraversalIsPure) {
  const Benchmark b = get_benchmark("LocVolCalib");
  FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
  const KernelPlan plan = build_kernel_plan(inc.program);
  const DeviceProfile dev = device_vega64();
  PlanDatasetCache cache(plan, dev, b.datasets[0].sizes);
  const ThresholdEnv thr;
  const double first = plan_cost(plan, cache, thr);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(plan_cost(plan, cache, thr), first);
  }
}

}  // namespace
}  // namespace incflat
