// Property tests for the plan layer (src/plan/): traversing a KernelPlan
// must reproduce the legacy IR-walking cost model *bit for bit* — same code
// version selected, same RunEstimate down to the last ulp — across the whole
// benchmark suite, randomized dataset sizes and randomized threshold
// assignments, including the local-memory fallback path.  The legacy walker
// is the oracle; the plan is the production path.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/flatten/flatten.h"
#include "src/ir/builder.h"
#include "src/ir/typecheck.h"
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
  int fallbacks = 0, programs = 0;
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    for (FlattenMode mode : {FlattenMode::Moderate, FlattenMode::Incremental,
                             FlattenMode::Full}) {
      FlattenResult fr = flatten(b.program, mode);
      const KernelPlan plan = build_kernel_plan(fr.program);
      ++programs;
      if (plan.legacy_fallback) ++fallbacks;
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
  // The plan builder must cover the suite: fallbacks are allowed by the API
  // but would mean the tuner silently loses its fast path.
  EXPECT_EQ(fallbacks, 0) << "of " << programs << " programs";
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
  ASSERT_FALSE(plan.legacy_fallback) << plan.fallback_reason;

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
  ASSERT_FALSE(plan.legacy_fallback);
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

void expect_same_report(const TuningReport& plan, const TuningReport& walk,
                        const std::string& ctx) {
  EXPECT_TRUE(plan.used_plan) << ctx;
  EXPECT_FALSE(walk.used_plan) << ctx;
  EXPECT_EQ(plan.best.values, walk.best.values) << ctx;
  EXPECT_EQ(plan.best.default_threshold, walk.best.default_threshold) << ctx;
  EXPECT_EQ(plan.best_cost_us, walk.best_cost_us) << ctx;
  EXPECT_EQ(plan.default_cost_us, walk.default_cost_us) << ctx;
  EXPECT_EQ(plan.trials, walk.trials) << ctx;
  EXPECT_EQ(plan.evaluations, walk.evaluations) << ctx;
  EXPECT_EQ(plan.dedup_hits, walk.dedup_hits) << ctx;
  EXPECT_EQ(plan.infeasible, walk.infeasible) << ctx;
  EXPECT_EQ(plan.journal_replayed, walk.journal_replayed) << ctx;
  EXPECT_EQ(plan.early_stopped, walk.early_stopped) << ctx;
  EXPECT_EQ(plan.profile_seeded, walk.profile_seeded) << ctx;
  EXPECT_EQ(plan.cold_pruned, walk.cold_pruned) << ctx;
}

// The plan-evaluating tuner and the legacy IR-walking tuner are the same
// search over the same costs, so they must return identical reports: every
// benchmark, both devices, several search seeds, exact and fault-injected
// measurement (noise, failures and a candidate timeout), stochastic and
// exhaustive.  The plan side tunes on the compiled KernelPlan; the walker
// side takes the program.
TEST(PlanLayer, TunerEquivalentToWalkerTuner) {
  for (const std::string& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
    const KernelPlan plan = build_kernel_plan(inc.program);
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    for (const auto& dev : {device_k40(), device_vega64()}) {
      for (int s = 0; s < 3; ++s) {
        for (const bool faulty : {false, true}) {
          TunerOptions plan_opts;
          plan_opts.max_trials = 120;
          plan_opts.seed = 0xf00dcafe + static_cast<uint64_t>(s);
          if (faulty) {
            plan_opts.noise = 0.1;
            plan_opts.failure_rate = 0.2;
            plan_opts.measure_k = 3;
            plan_opts.measure_seed = 0x5eed + static_cast<uint64_t>(s);
            plan_opts.candidate_timeout_us = 10000;
          }
          TunerOptions walk_opts = plan_opts;
          walk_opts.use_plan = false;
          const std::string ctx = name + "/" + dev.name + " seed " +
                                  std::to_string(s) +
                                  (faulty ? " faulty" : " exact");
          expect_same_report(
              autotune(dev, plan, inc.thresholds, train, plan_opts),
              autotune(dev, inc.program, inc.thresholds, train, walk_opts),
              ctx);
        }
      }
      TunerOptions walk_opts;
      walk_opts.use_plan = false;
      expect_same_report(
          exhaustive_tune(dev, plan, inc.thresholds, train),
          exhaustive_tune(dev, inc.program, inc.thresholds, train,
                          int64_t{1} << 15, walk_opts),
          name + "/" + dev.name + " exhaustive");
    }
  }
}

// A plan is built once and reused: mutating nothing between evaluations,
// repeated traversals of the same cache are stable.
TEST(PlanLayer, RepeatedTraversalIsPure) {
  const Benchmark b = get_benchmark("LocVolCalib");
  FlattenResult inc = flatten(b.program, FlattenMode::Incremental);
  const KernelPlan plan = build_kernel_plan(inc.program);
  ASSERT_FALSE(plan.legacy_fallback);
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
