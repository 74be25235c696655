// The speculative tier (src/plan/specialize.*) and the tiered runtime
// (TieredRuntime): interval meets, specializer refusals, shape-guard
// soundness, deoptimization policy, and THE bit-identity property — across
// the benchsuite, both devices, and randomized dataset streams with
// adversarial shape drift, every tiered run's estimate is bit-identical to
// the always-tree oracle, with at least one specialization and one
// deoptimization actually exercised.  Also covers the golden compatibility
// mode (tiers off == plain fault runtime) and the profile-seeded autotuner.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/range.h"
#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/exec/runtime.h"
#include "src/gpusim/device.h"
#include "src/gpusim/faults.h"
#include "src/plan/plan.h"
#include "src/plan/specialize.h"
#include "src/profile/profile.h"
#include "src/support/rng.h"

namespace incflat {
namespace {

using analysis::IntInterval;
using analysis::interval_meet;

void expect_same_estimate(const RunEstimate& a, const RunEstimate& b,
                          const std::string& ctx) {
  EXPECT_EQ(a.time_us, b.time_us) << ctx;
  EXPECT_EQ(a.kernel_launches, b.kernel_launches) << ctx;
  EXPECT_EQ(a.total.flops, b.total.flops) << ctx;
  EXPECT_EQ(a.total.gbytes, b.total.gbytes) << ctx;
  EXPECT_EQ(a.total.lbytes, b.total.lbytes) << ctx;
  ASSERT_EQ(a.kernels.size(), b.kernels.size()) << ctx;
  for (size_t i = 0; i < a.kernels.size(); ++i) {
    const std::string kctx = ctx + " kernel #" + std::to_string(i);
    EXPECT_EQ(a.kernels[i].what, b.kernels[i].what) << kctx;
    EXPECT_EQ(a.kernels[i].time_us, b.kernels[i].time_us) << kctx;
    EXPECT_EQ(a.kernels[i].threads, b.kernels[i].threads) << kctx;
    EXPECT_EQ(a.kernels[i].work.flops, b.kernels[i].work.flops) << kctx;
    EXPECT_EQ(a.kernels[i].work.gbytes, b.kernels[i].work.gbytes) << kctx;
    EXPECT_EQ(a.kernels[i].work.lbytes, b.kernels[i].work.lbytes) << kctx;
    EXPECT_EQ(a.kernels[i].used_local_fallback,
              b.kernels[i].used_local_fallback)
        << kctx;
  }
  ASSERT_EQ(a.guards.size(), b.guards.size()) << ctx;
  for (size_t i = 0; i < a.guards.size(); ++i) {
    EXPECT_EQ(a.guards[i].first, b.guards[i].first) << ctx;
    EXPECT_EQ(a.guards[i].second, b.guards[i].second) << ctx;
  }
}

/// Profile `runs` identical descents of `plan` at `sizes` under
/// `thresholds` (enough to stabilize every reached guard).
profile::ExecProfile stable_profile(const KernelPlan& plan,
                                    const DeviceProfile& dev,
                                    const PlanDatasetCache& cache, int runs,
                                    const ThresholdEnv& thresholds) {
  profile::ExecProfile p =
      profile::make_profile(plan, plan.program.name, dev.name);
  for (int i = 0; i < runs; ++i) {
    profile::record_run(p, plan, cache, thresholds);
  }
  return p;
}

// ---------------------------------------------------------------------------
// interval_meet
// ---------------------------------------------------------------------------

TEST(IntervalMeet, MeetsBoundsAndDetectsEmptiness) {
  bool empty = true;
  // top ∩ x = x.
  IntInterval m = interval_meet(IntInterval::top(), IntInterval::range(3, 9),
                                &empty);
  EXPECT_FALSE(empty);
  EXPECT_TRUE(m.lo_finite && m.hi_finite);
  EXPECT_EQ(m.lo, 3);
  EXPECT_EQ(m.hi, 9);

  // Overlapping ranges intersect.
  m = interval_meet(IntInterval::range(1, 5), IntInterval::range(3, 10),
                    &empty);
  EXPECT_FALSE(empty);
  EXPECT_EQ(m.lo, 3);
  EXPECT_EQ(m.hi, 5);

  // Half-open constraints conjoin (the shape-guard case: par >= t with
  // par <= t'-1 from two folds over the same operand).
  IntInterval ge;  // [8, +inf)
  ge.lo_finite = true;
  ge.lo = 8;
  IntInterval le;  // (-inf, 100]
  le.hi_finite = true;
  le.hi = 100;
  m = interval_meet(ge, le, &empty);
  EXPECT_FALSE(empty);
  EXPECT_TRUE(m.lo_finite && m.hi_finite);
  EXPECT_EQ(m.lo, 8);
  EXPECT_EQ(m.hi, 100);

  // Disjoint ranges: empty, and the caller is told.
  interval_meet(IntInterval::range(1, 2), IntInterval::range(5, 9), &empty);
  EXPECT_TRUE(empty);
  interval_meet(IntInterval::point(4), IntInterval::point(5), &empty);
  EXPECT_TRUE(empty);

  // A single shared point is non-empty.
  m = interval_meet(IntInterval::range(1, 5), IntInterval::range(5, 9),
                    &empty);
  EXPECT_FALSE(empty);
  EXPECT_EQ(m.lo, 5);
  EXPECT_EQ(m.hi, 5);
}

// ---------------------------------------------------------------------------
// Specializer refusals
// ---------------------------------------------------------------------------

TEST(Specialize, RefusesUnstableProfilesAndForeignDevices) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const KernelPlan& plan = *c.plan;
  const DeviceProfile dev = device_k40();
  const PlanDatasetCache cache(plan, dev, b.datasets.at(0).sizes);
  const ThresholdEnv thr;

  // A fresh profile has no streaks: every reachable guard is unstable.
  const profile::ExecProfile fresh =
      profile::make_profile(plan, plan.program.name, dev.name);
  spesh::SpecializeResult r = spesh::specialize_plan(plan, fresh, thr, dev);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("not stable"), std::string::npos) << r.reason;

  // One run short of the hot window still refuses; reaching it specializes.
  spesh::SpecializeOptions opts;
  opts.hot_runs = 4;
  const profile::ExecProfile warm =
      stable_profile(plan, dev, cache, 3, thr);
  EXPECT_FALSE(spesh::specialize_plan(plan, warm, thr, dev, opts).ok);
  const profile::ExecProfile hot = stable_profile(plan, dev, cache, 4, thr);
  EXPECT_TRUE(spesh::specialize_plan(plan, hot, thr, dev, opts).ok);

  // A profile recorded on another device does not transfer (fit decisions
  // are device-dependent).
  profile::ExecProfile foreign = hot;
  foreign.device = "vega64";
  r = spesh::specialize_plan(plan, foreign, thr, dev, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("device"), std::string::npos) << r.reason;
}

// ---------------------------------------------------------------------------
// Specialized replay: bit-identity under passing shape guards
// ---------------------------------------------------------------------------

class SpeshSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(SpeshSuite, SpecializedReplayIsBitIdenticalToTheTree) {
  const Benchmark b = get_benchmark(GetParam());
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const KernelPlan& plan = *c.plan;

  spesh::SpecializeOptions opts;
  opts.hot_runs = 4;
  for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
    for (const auto& d : b.datasets) {
      const PlanDatasetCache cache(plan, dev, d.sizes);
      const ThresholdEnv thr;
      const profile::ExecProfile prof =
          stable_profile(plan, dev, cache, opts.hot_runs, thr);
      const spesh::SpecializeResult r =
          spesh::specialize_plan(plan, prof, thr, dev, opts);
      if (!r.ok) continue;  // e.g. data-dependent branches: tree-only
      const std::string ctx = b.name + "/" + dev.name + "/" + d.name;
      const spesh::SpecializedPlan& sp = r.plan;
      EXPECT_FALSE(sp.folded_guards.empty() && sp.elided_guards.empty())
          << ctx;
      EXPECT_NE(sp.str().find("folded"), std::string::npos) << ctx;

      // The profiled dataset must pass its own shape guards.
      EXPECT_TRUE(spesh::shape_guards_pass(sp, d.sizes)) << ctx;

      // Estimate, scalar cost and launch schedule are all bit-identical.
      const RunEstimate tree = plan_estimate(plan, cache, thr);
      expect_same_estimate(spesh::spec_estimate(plan, sp, cache), tree, ctx);
      EXPECT_EQ(spesh::spec_cost(plan, sp, cache),
                plan_cost(plan, cache, thr))
          << ctx;
      const auto tree_sched = plan_launch_schedule(plan, cache, thr);
      const auto spec_sched = spesh::spec_launch_schedule(plan, sp, cache);
      ASSERT_EQ(spec_sched.size(), tree_sched.size()) << ctx;
      for (size_t i = 0; i < spec_sched.size(); ++i) {
        EXPECT_EQ(spec_sched[i].kernel, tree_sched[i].kernel) << ctx;
        EXPECT_EQ(spec_sched[i].what, tree_sched[i].what) << ctx;
        EXPECT_EQ(spec_sched[i].time_us, tree_sched[i].time_us) << ctx;
        EXPECT_EQ(spec_sched[i].launches, tree_sched[i].launches) << ctx;
        // The whole point: no per-entry guard-path copies on the fast tier.
        EXPECT_TRUE(spec_sched[i].guard_path.empty()) << ctx;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SpeshSuite,
                         ::testing::ValuesIn(all_benchmark_names()),
                         [](const auto& info) { return info.param; });

// Shape-guard soundness: on randomized drifted datasets, whenever the
// guards pass the replay is bit-identical; whenever the descent would
// decide differently than the speculation, the guards must fail.
TEST(ShapeGuards, PassImpliesBitIdentityFailCatchesEveryFlip) {
  const Benchmark b = bench_heston();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const KernelPlan& plan = *c.plan;
  const DeviceProfile dev = device_k40();
  const SizeEnv base = b.datasets.at(0).sizes;
  const ThresholdEnv thr;

  spesh::SpecializeOptions opts;
  opts.hot_runs = 4;
  const PlanDatasetCache base_cache(plan, dev, base);
  const profile::ExecProfile prof =
      stable_profile(plan, dev, base_cache, opts.hot_runs, thr);
  const spesh::SpecializeResult r =
      spesh::specialize_plan(plan, prof, thr, dev, opts);
  ASSERT_TRUE(r.ok) << r.reason;
  const spesh::SpecializedPlan& sp = r.plan;

  // The speculated guard decisions, read off the profiled descent.
  const RunEstimate base_est = plan_estimate(plan, base_cache, thr);

  Rng rng(0xd61f7);
  int passed = 0, failed = 0;
  for (int it = 0; it < 60; ++it) {
    SizeEnv drifted = base;
    for (auto& [name, value] : drifted) {
      // Scale each size by 2^e, e in [-10, 2]: adversarial shrinks cross
      // the threshold boundaries, mild growth stays within them.
      const int e = static_cast<int>(rng.uniform_int(-10, 2));
      value = std::max<int64_t>(1, e < 0 ? value >> -e : value << e);
    }
    const PlanDatasetCache cache(plan, dev, drifted);
    const RunEstimate tree = plan_estimate(plan, cache, thr);
    const bool pass = spesh::shape_guards_pass(sp, drifted);
    const std::string ctx = "iteration " + std::to_string(it);
    if (pass) {
      ++passed;
      expect_same_estimate(spesh::spec_estimate(plan, sp, cache), tree, ctx);
    } else {
      ++failed;
    }
    // Contrapositive: a decision flip must never slip past the guards.
    if (tree.guards != base_est.guards) {
      EXPECT_FALSE(pass) << ctx << ": guard decisions flipped ("
                         << tree.guards.size() << " guards) but the shape "
                         << "guards still passed";
    }
  }
  // The drift distribution must exercise both outcomes for the test to
  // mean anything.
  EXPECT_GT(passed, 0);
  EXPECT_GT(failed, 0);

  // A failed dispatch reports which guard broke.
  const spesh::ShapeGuard* broke = nullptr;
  SizeEnv tiny = base;
  for (auto& [name, value] : tiny) value = 1;
  if (!spesh::shape_guards_pass(sp, tiny, &broke)) {
    ASSERT_NE(broke, nullptr);
    EXPECT_FALSE(broke->why.empty());
  }
}

// ---------------------------------------------------------------------------
// Tiered runtime: dispatch, deopt policy, fault composition
// ---------------------------------------------------------------------------

TEST(TieredRuntime, SpecializesAfterTheHotWindowAndDispatchesToTier2) {
  const Benchmark b = bench_heston();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;

  TierPolicy tp;
  tp.hot_runs = 4;
  TieredRuntime rt(dev, *c.plan, tp);
  for (int i = 1; i <= 10; ++i) {
    FaultPlan faults;
    const TieredOutcome t = rt.run(sizes, {}, faults);
    ASSERT_TRUE(t.run.ok) << "run " << i;
    EXPECT_FALSE(t.deopted) << "run " << i;
    // Specialization lands after `hot_runs` recorded runs; every later run
    // dispatches to the specialized schedule.
    EXPECT_EQ(t.specialized, i > 4) << "run " << i;
  }
  EXPECT_EQ(rt.stats().tree_runs, 4);
  EXPECT_EQ(rt.stats().spec_runs, 6);
  EXPECT_EQ(rt.stats().specializations, 1);
  EXPECT_EQ(rt.stats().deopts, 0);
  ASSERT_NE(rt.specialized(), nullptr);
  EXPECT_NE(rt.deopt_stats().find("spesh"), std::string::npos);
}

TEST(TieredRuntime, ThresholdChangeDeoptimizesAndDampsRespecialization) {
  const Benchmark b = bench_heston();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;

  TierPolicy tp;
  tp.hot_runs = 3;
  TieredRuntime rt(dev, *c.plan, tp);
  for (int i = 0; i < 5; ++i) {
    FaultPlan faults;
    rt.run(sizes, {}, faults);
  }
  ASSERT_NE(rt.specialized(), nullptr);

  // A different threshold assignment invalidates the frozen specialization.
  ThresholdEnv other;
  other.default_threshold = 1;
  FaultPlan faults;
  const TieredOutcome t = rt.run(sizes, other, faults);
  ASSERT_TRUE(t.run.ok);
  EXPECT_TRUE(t.deopted);
  EXPECT_FALSE(t.specialized);
  EXPECT_NE(t.deopt_reason.find("threshold"), std::string::npos)
      << t.deopt_reason;
  EXPECT_EQ(rt.specialized(), nullptr);
  EXPECT_EQ(rt.stats().deopts, 1);
  EXPECT_GE(rt.stats().invalidations, 1);

  // Damping: re-specializing needs a full fresh window, not one run.
  for (int i = 0; i < 2; ++i) {
    FaultPlan f2;
    const TieredOutcome u = rt.run(sizes, other, f2);
    EXPECT_FALSE(u.specialized);
  }
  for (int i = 0; i < 2; ++i) {
    FaultPlan f2;
    rt.run(sizes, other, f2);
  }
  EXPECT_NE(rt.specialized(), nullptr) << "fresh stability window ignored";
}

TEST(TieredRuntime, PersistentFaultOnTier2DeoptsAndAccountsTheDebris) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;

  TierPolicy tp;
  tp.hot_runs = 3;
  TieredRuntime rt(dev, *c.plan, tp);
  for (int i = 0; i < 4; ++i) {
    FaultPlan faults;
    const TieredOutcome t = rt.run(sizes, {}, faults);
    ASSERT_TRUE(t.run.ok);
  }
  ASSERT_NE(rt.specialized(), nullptr);

  // The next run's first launch alloc-fails: persistent on the specialized
  // tier, so it deoptimizes mid-run and the tree rerun (whose own first
  // consultation is past the scripted index) completes — with the wasted
  // specialized attempt carried in the overhead, never dropped.
  FaultPlan faults;
  faults.script(0, FaultKind::LocalAllocFailed);
  const TieredOutcome t = rt.run(sizes, {}, faults);
  ASSERT_TRUE(t.run.ok);
  EXPECT_TRUE(t.deopted);
  EXPECT_FALSE(t.specialized);
  EXPECT_NE(t.deopt_reason.find("persistent fault"), std::string::npos)
      << t.deopt_reason;
  EXPECT_GE(t.run.faults, 1);
  EXPECT_GT(t.run.overhead_us, 0) << "specialized debris vanished";
  EXPECT_EQ(rt.specialized(), nullptr);
  EXPECT_EQ(rt.stats().deopts, 1);
  ASSERT_FALSE(t.run.events.empty());
  EXPECT_EQ(t.run.events.front().action, "deopt");
}

TEST(TieredRuntime, DegradationInvalidatesSpecializationAndResetsStreaks) {
  const Benchmark b = bench_matmul();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const DeviceProfile dev = device_k40();
  const SizeEnv sizes = b.datasets.at(0).sizes;

  TierPolicy tp;
  tp.hot_runs = 3;
  TieredRuntime rt(dev, *c.plan, tp);
  for (int i = 0; i < 4; ++i) {
    FaultPlan faults;
    ASSERT_TRUE(rt.run(sizes, {}, faults).run.ok);
  }
  ASSERT_NE(rt.specialized(), nullptr);

  // Two scripted alloc failures: the first kills the specialized attempt
  // (deopt), the second hits the tree rerun and degrades it.  A degraded
  // run must not feed the profile, and no specialization survives it.
  FaultPlan faults;
  faults.script(0, FaultKind::LocalAllocFailed);
  faults.script(1, FaultKind::LocalAllocFailed);
  const TieredOutcome t = rt.run(sizes, {}, faults);
  ASSERT_TRUE(t.run.ok);
  EXPECT_TRUE(t.deopted);
  EXPECT_GE(t.run.degradations, 1);
  EXPECT_EQ(rt.specialized(), nullptr)
      << "a specialized plan survived a degradation";
  for (const auto& g : rt.prof().guards) {
    EXPECT_EQ(g.streak, 0) << "streaks not reset after degradation";
  }
}

// ---------------------------------------------------------------------------
// Golden compatibility: tiers off == the plain fault runtime
// ---------------------------------------------------------------------------

TEST(TieredRuntime, TiersOffIsBitIdenticalToThePlainRuntime) {
  TierPolicy off;
  off.profile = false;
  off.specialize = false;
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    const Compiled c = compile(b.program, FlattenMode::Incremental);
    for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        const std::string ctx =
            name + "/" + dev.name + " seed " + std::to_string(seed);
        const FaultSpec spec = parse_fault_spec("all=0.05");
        FaultPlan plain_faults(spec, seed);
        FaultPlan tiered_faults(spec, seed);
        const RunOutcome plain = run_with_faults(
            dev, c, b.test_sizes, {}, plain_faults, off.run);
        TieredRuntime rt(dev, *c.plan, off);
        const TieredOutcome t = rt.run(b.test_sizes, {}, tiered_faults);
        EXPECT_FALSE(t.specialized) << ctx;
        EXPECT_FALSE(t.deopted) << ctx;
        EXPECT_EQ(t.run.ok, plain.ok) << ctx;
        EXPECT_EQ(t.run.time_us, plain.time_us) << ctx;
        EXPECT_EQ(t.run.overhead_us, plain.overhead_us) << ctx;
        EXPECT_EQ(t.run.faults, plain.faults) << ctx;
        EXPECT_EQ(t.run.retries, plain.retries) << ctx;
        EXPECT_EQ(t.run.degradations, plain.degradations) << ctx;
        EXPECT_EQ(t.run.degraded, plain.degraded) << ctx;
        EXPECT_EQ(t.run.thresholds.values, plain.thresholds.values) << ctx;
        if (plain.ok) {
          expect_same_estimate(t.run.estimate, plain.estimate, ctx);
        }
        EXPECT_EQ(rt.prof().runs, 0) << ctx << ": profiling not off";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// THE acceptance property: randomized drifting streams, both devices,
// whole benchsuite — bit-identical to always-tree, with specializations
// and deopts actually exercised.
// ---------------------------------------------------------------------------

TEST(TieredRuntime, DriftingStreamsStayBitIdenticalToTheTreeOracle) {
  int64_t total_specializations = 0;
  int64_t total_deopts = 0;
  int64_t total_spec_runs = 0;

  Rng rng(0x57e91);
  for (const auto& name : all_benchmark_names()) {
    const Benchmark b = get_benchmark(name);
    const Compiled c = compile(b.program, FlattenMode::Incremental);
    const KernelPlan& plan = *c.plan;
    for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
      TierPolicy tp;
      tp.hot_runs = 3;
      TieredRuntime rt(dev, plan, tp);
      const ThresholdEnv thr;

      // A 24-run stream: stretches of the stable Table 1 dataset, broken by
      // adversarial drift — the other dataset, interpreter-tiny sizes, and
      // random power-of-two rescalings.
      const SizeEnv stable = b.datasets.at(0).sizes;
      for (int i = 0; i < 24; ++i) {
        SizeEnv sizes = stable;
        if (i >= 8 && rng.flip(0.25)) {
          const int pick = static_cast<int>(rng.uniform_int(0, 2));
          if (pick == 0 && b.datasets.size() > 1) {
            sizes = b.datasets.at(1).sizes;
          } else if (pick == 1) {
            sizes = b.test_sizes;
          } else {
            for (auto& [n, v] : sizes) {
              const int e = static_cast<int>(rng.uniform_int(-8, 1));
              v = std::max<int64_t>(1, e < 0 ? v >> -e : v << e);
            }
          }
        }
        FaultPlan faults;
        const TieredOutcome t = rt.run(sizes, thr, faults);
        const std::string ctx = name + "/" + dev.name + " run " +
                                std::to_string(i) +
                                (t.specialized ? " (spesh)" : " (tree)");
        ASSERT_TRUE(t.run.ok) << ctx;
        // The oracle: a plain tree descent of the same plan.
        expect_same_estimate(t.run.estimate,
                             plan_estimate_run(plan, dev, sizes, thr), ctx);
      }

      // A threshold flip after a stable tail guarantees a deopt wherever a
      // specialization is live.
      for (int i = 0; i < 4; ++i) {
        FaultPlan faults;
        rt.run(stable, thr, faults);
      }
      ThresholdEnv flipped;
      flipped.default_threshold = 1;
      FaultPlan faults;
      const TieredOutcome t = rt.run(stable, flipped, faults);
      ASSERT_TRUE(t.run.ok) << name << "/" << dev.name;
      expect_same_estimate(
          t.run.estimate, plan_estimate_run(plan, dev, stable, flipped),
          name + "/" + dev.name + " threshold flip");

      total_specializations += rt.stats().specializations;
      total_deopts += rt.stats().deopts;
      total_spec_runs += rt.stats().spec_runs;
    }
  }

  // The stream must actually exercise the tiers, or the identity above is
  // vacuous.
  EXPECT_GE(total_specializations, 1) << "no plan ever specialized";
  EXPECT_GE(total_deopts, 1) << "no run ever deoptimized";
  EXPECT_GE(total_spec_runs, 1) << "the specialized tier never ran";
}

// ---------------------------------------------------------------------------
// Profile-seeded autotuning
// ---------------------------------------------------------------------------

TEST(ProfileSeededTuning, ColdThresholdsArePrunedAndResultsStayValid) {
  const Benchmark b = bench_heston();
  const Compiled c = compile(b.program, FlattenMode::Incremental);
  const KernelPlan& plan = *c.plan;
  const DeviceProfile dev = device_k40();
  std::vector<TuningDataset> train;
  for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});

  // Profile the training workloads under the default assignment: nested
  // guards under never-taken branches stay cold.
  profile::ExecProfile prof =
      profile::make_profile(plan, plan.program.name, dev.name);
  for (const auto& d : train) {
    const PlanDatasetCache cache(plan, dev, d.sizes);
    for (int i = 0; i < 3; ++i) {
      profile::record_run(prof, plan, cache, ThresholdEnv{});
    }
  }
  bool any_cold = false;
  for (const auto& g : prof.guards) any_cold = any_cold || !g.reached();
  ASSERT_TRUE(any_cold) << "fixture lost its cold guards";

  TunerOptions seeded;
  seeded.max_trials = 120;
  seeded.profile = &prof;
  const TuningReport rep =
      autotune(dev, c.flat.program, c.flat.thresholds, train, seeded);
  EXPECT_TRUE(rep.profile_seeded);
  EXPECT_GT(rep.cold_pruned, 0);
  // The reported best cost is a real cost: the reference walker reprices the
  // returned assignment to the same number, and tuning never loses to the
  // untuned default.
  EXPECT_DOUBLE_EQ(tuning_cost(dev, c.flat.program, train, rep.best),
                   rep.best_cost_us);
  EXPECT_LE(rep.best_cost_us, rep.default_cost_us);

  // Without a profile the same options leave the search unseeded.
  TunerOptions unseeded = seeded;
  unseeded.profile = nullptr;
  const TuningReport plain =
      autotune(dev, c.flat.program, c.flat.thresholds, train, unseeded);
  EXPECT_FALSE(plain.profile_seeded);
  EXPECT_EQ(plain.cold_pruned, 0);
}

}  // namespace
}  // namespace incflat
