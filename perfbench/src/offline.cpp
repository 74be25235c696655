// The `offline` workload: what an `incflatc --tune` user waits for.
//
// Set-up (repeated kSetups times, each timed) builds the suite, compiles
// every benchmark in every mode, checks execution against the source
// program and the golden implementations, checks the plan pricing against
// the legacy IR walker, tunes, and records what the timed iterations must
// reproduce.  Each timed iteration then, on one thread (the tuner runs with
// one worker) and timed in process CPU time (see calibrate.h):
//   1. cold-compiles the 10 benchmarks x {moderate, incremental, full} in
//      a seeded order,
//   2. autotunes each incremental program for k40 and vega64 on its
//      training datasets,
//   3. prices every evaluation dataset under moderate flattening and under
//      tuned incremental flattening.
// Output checks are made between the timed sections and are not timed.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <unistd.h>

#include "calibrate.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/gpusim/cost.h"
#include "src/gpusim/device.h"
#include "src/ir/print.h"
#include "src/pass/pass.h"
#include "src/support/rng.h"

namespace perfbench {
namespace {

using namespace incflat;

constexpr std::array<FlattenMode, 3> kModes = {
    FlattenMode::Moderate, FlattenMode::Incremental, FlattenMode::Full};
constexpr int kModerate = 0, kIncremental = 1;
const std::array<DeviceProfile, 2>& devices() {
  static const std::array<DeviceProfile, 2> d = {device_k40(),
                                                 device_vega64()};
  return d;
}

/// Iterations slower than this miss the latency limit (about 6x the
/// ~17 ms iteration of a Release build on a 4-vCPU host).
constexpr double kIterationLimitUs = 100'000;
/// Measurement windows per run (see EndToEnd::windows).
constexpr size_t kWindows = 10;

CompileOptions options_for(const Benchmark& b, FlattenMode m) {
  CompileOptions o;
  if (m == FlattenMode::Moderate) o.flatten.fuse = b.fuse_moderate;
  return o;
}

std::vector<TuningDataset> training(const Benchmark& b) {
  std::vector<TuningDataset> t;
  for (const auto& d : b.tuning) t.push_back({d.name, d.sizes, 1.0});
  return t;
}

struct Price {
  double moderate_us = 0;
  int64_t moderate_launches = 0;
  double tuned_us = 0;
  int64_t tuned_launches = 0;
};

/// What set-up establishes and every timed iteration must reproduce.
struct Reference {
  std::vector<Benchmark> benches;
  std::vector<std::vector<TuningDataset>> training;  // [bench]
  std::vector<std::array<std::string, 3>> ir;        // [bench][mode]
  std::vector<std::array<ThresholdEnv, 2>> tuned;    // [bench][device]
  std::vector<std::vector<std::array<Price, 2>>> prices;  // [b][ds][dev]
  bool operator==(const Reference& o) const {
    if (ir != o.ir || tuned.size() != o.tuned.size()) return false;
    for (size_t b = 0; b < tuned.size(); ++b)
      for (size_t d = 0; d < 2; ++d)
        if (tuned[b][d].values != o.tuned[b][d].values) return false;
    for (size_t b = 0; b < prices.size(); ++b)
      for (size_t s = 0; s < prices[b].size(); ++s)
        for (size_t d = 0; d < 2; ++d) {
          const Price &x = prices[b][s][d], &y = o.prices[b][s][d];
          if (x.moderate_us != y.moderate_us || x.tuned_us != y.tuned_us ||
              x.moderate_launches != y.moderate_launches ||
              x.tuned_launches != y.tuned_launches)
            return false;
        }
    return true;
  }
};

bool same_values(const Values& a, const Values& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!a[i].approx_equal(b[i], 1e-4)) return false;
  return true;
}

Reference set_up(uint64_t seed, const TunerOptions& topts, Result& out) {
  Reference ref;
  for (const auto& name : all_benchmark_names()) {
    ref.benches.push_back(get_benchmark(name));
    ref.training.push_back(training(ref.benches.back()));
  }

  OpTally& check = out.op("check");
  for (const Benchmark& b : ref.benches) {
    std::array<Compiled, 3> cs;
    std::array<std::string, 3> ir;
    for (size_t m = 0; m < kModes.size(); ++m) {
      cs[m] = compile(b.program, kModes[m], options_for(b, kModes[m]));
      ir[m] = pretty(cs[m].flat.program);
    }
    ref.ir.push_back(ir);

    // Values: every mode's target program against the source program, and
    // the source against the golden implementation where one exists.
    Rng rng(derive_seed(seed, "inputs-" + b.name));
    const std::vector<Value> inputs = b.gen_inputs(rng, b.test_sizes);
    const Values want = execute_source(cs[kIncremental], b.test_sizes, inputs);
    if (b.golden) {
      if (same_values(want, b.golden(b.test_sizes, inputs)))
        check.ok();
      else
        out.mismatch("check", b.name + ": source != golden");
    }
    for (size_t m = 0; m < kModes.size(); ++m) {
      const Values got =
          execute(devices()[0], cs[m], b.test_sizes, ThresholdEnv{}, inputs);
      if (same_values(got, want))
        check.ok();
      else
        out.mismatch("check", b.name + " " + mode_name(kModes[m]) +
                                  ": execute != execute_source");
    }

    // Pricing: the plan against the legacy walker, every mode, dataset and
    // device, bit for bit.
    for (size_t m = 0; m < kModes.size(); ++m)
      for (const auto& d : b.datasets)
        for (const auto& dev : devices()) {
          const RunEstimate p = simulate(dev, cs[m], d.sizes);
          const RunEstimate w =
              estimate_run(dev, cs[m].flat.program, d.sizes, ThresholdEnv{});
          if (p.time_us == w.time_us && p.kernel_launches == w.kernel_launches)
            check.ok();
          else
            out.mismatch("check", b.name + " " + mode_name(kModes[m]) + " " +
                                      d.name + " " + dev.name +
                                      ": simulate != estimate_run");
        }

    std::array<ThresholdEnv, 2> tuned;
    for (size_t dv = 0; dv < 2; ++dv)
      tuned[dv] = autotune(devices()[dv], cs[kIncremental].flat.program,
                           cs[kIncremental].flat.thresholds, training(b), topts)
                      .best;
    ref.tuned.push_back(tuned);

    std::vector<std::array<Price, 2>> prices;
    for (const auto& d : b.datasets) {
      std::array<Price, 2> pd;
      for (size_t dv = 0; dv < 2; ++dv) {
        const RunEstimate mo = estimate_run(
            devices()[dv], cs[kModerate].flat.program, d.sizes, ThresholdEnv{});
        const RunEstimate tu = estimate_run(
            devices()[dv], cs[kIncremental].flat.program, d.sizes, tuned[dv]);
        pd[dv] = {mo.time_us, mo.kernel_launches, tu.time_us,
                  tu.kernel_launches};
      }
      prices.push_back(pd);
    }
    ref.prices.push_back(prices);
  }
  return ref;
}

/// Per-pass accumulators of one traced iteration.
using PassTimes = std::map<std::string, double>;

/// compile(), but with each pass of the canned pipeline run through its
/// own single-pass PassManager so that each can be timed on its own.
Compiled compile_by_pass(const Benchmark& b, FlattenMode m, PassTimes* times,
                         PassTimes* ir_bytes) {
  PipelineState st;
  st.program = b.program;
  st.mode = m;
  st.options = options_for(b, m).flatten;
  const PassManager pipeline = compile_pipeline(m);
  for (const auto& pass : pipeline.passes()) {
    PassManager pm;
    pm.add(pass->name());
    {
      Span span(pass->span_name());
      const CpuTimer cpu;
      pm.run(st);
      if (times) (*times)[pass->name()] += cpu.us() / 1e3;
    }
    if (ir_bytes)
      (*ir_bytes)[pass->name()] += static_cast<double>(pretty(st.program).size());
  }
  Compiled c;
  c.source = b.program;
  c.mode = m;
  c.flat = FlattenResult{std::move(st.program), std::move(st.thresholds)};
  c.plan = std::move(st.plan);
  return c;
}

struct Iteration {
  double compile_us = 0, tune_us = 0, price_us = 0;
  bool ok = true;
  PassTimes pass_ms;
  std::vector<double> estimate_us;
  std::vector<double> speedups;
  int64_t trials = 0, evaluations = 0, dedup_hits = 0;
  double scale = 1;  // host-speed factor from the probe right after it
  double latency_us() const { return compile_us + tune_us + price_us; }
};

Iteration iterate(const Reference& ref, const TunerOptions& topts,
                  SeedRng& order_rng, bool by_pass, Result& out) {
  Iteration it;
  Span iter_span("offline.iteration");
  const size_t nb = ref.benches.size();
  std::vector<std::array<Compiled, 3>> cs(nb);

  const std::vector<size_t> order =
      seeded_permutation(nb * kModes.size(), order_rng.next());
  for (size_t k : order) {
    const size_t b = k / kModes.size(), m = k % kModes.size();
    const Benchmark& bench = ref.benches[b];
    try {
      Span span("compile");
      const CpuTimer cpu;
      cs[b][m] = by_pass ? compile_by_pass(bench, kModes[m], &it.pass_ms,
                                           nullptr)
                         : compile(bench.program, kModes[m],
                                   options_for(bench, kModes[m]));
      it.compile_us += cpu.us();
    } catch (const std::exception&) {
      out.op("compile").fail("error");
      it.ok = false;
      continue;
    }
    if (pretty(cs[b][m].flat.program) == ref.ir[b][m]) {
      out.op("compile").ok();
    } else {
      out.mismatch("compile", bench.name + " " + mode_name(kModes[m]) +
                                  ": IR differs from set-up");
      it.ok = false;
    }
  }

  std::vector<std::array<ThresholdEnv, 2>> tuned(nb);
  for (size_t b : seeded_permutation(nb, order_rng.next())) {
    const Compiled& inc = cs[b][kIncremental];
    for (size_t dv = 0; dv < 2; ++dv) {
      if (!inc.plan) {
        out.op("tune").fail("no-program");
        it.ok = false;
        continue;
      }
      try {
        Span span("tune");
        const CpuTimer cpu;
        const TuningReport rep =
            autotune(devices()[dv], inc.flat.program, inc.flat.thresholds,
                     ref.training[b], topts);
        it.tune_us += cpu.us();
        tuned[b][dv] = rep.best;
        it.trials += rep.trials;
        it.evaluations += rep.evaluations;
        it.dedup_hits += rep.dedup_hits;
      } catch (const std::exception&) {
        out.op("tune").fail("error");
        it.ok = false;
        continue;
      }
      if (tuned[b][dv].values == ref.tuned[b][dv].values) {
        out.op("tune").ok();
      } else {
        out.mismatch("tune", ref.benches[b].name + " " + devices()[dv].name +
                                 ": thresholds differ from set-up");
        it.ok = false;
      }
    }
  }

  for (size_t b = 0; b < nb; ++b) {
    const Benchmark& bench = ref.benches[b];
    const bool compiled = cs[b][kModerate].plan && cs[b][kIncremental].plan;
    for (size_t s = 0; s < bench.datasets.size(); ++s)
      for (size_t dv = 0; dv < 2; ++dv) {
        if (!compiled) {
          out.op("price").fail("no-program");
          continue;
        }
        const auto& sizes = bench.datasets[s].sizes;
        RunEstimate mo, tu;
        try {
          {
            Span span("plan.estimate");
            const CpuTimer cpu;
            mo = simulate(devices()[dv], cs[b][kModerate], sizes);
            it.estimate_us.push_back(cpu.us());
          }
          {
            Span span("plan.estimate");
            const CpuTimer cpu;
            tu = simulate(devices()[dv], cs[b][kIncremental], sizes,
                          tuned[b][dv]);
            it.estimate_us.push_back(cpu.us());
          }
        } catch (const std::exception&) {
          out.op("price").fail("error");
          it.ok = false;
          continue;
        }
        const Price& want = ref.prices[b][s][dv];
        if (mo.time_us == want.moderate_us &&
            mo.kernel_launches == want.moderate_launches &&
            tu.time_us == want.tuned_us &&
            tu.kernel_launches == want.tuned_launches) {
          out.op("price").ok();
        } else {
          out.mismatch("price", bench.name + " " + bench.datasets[s].name +
                                    " " + devices()[dv].name +
                                    ": simulate != legacy estimate_run");
          it.ok = false;
        }
        it.speedups.push_back(mo.time_us / tu.time_us);
      }
  }
  for (double us : it.estimate_us) it.price_us += us;
  return it;
}

/// Iterate for `seconds`, probing the host speed after each iteration.
std::vector<Iteration> measure(const Reference& ref, const TunerOptions& topts,
                               SeedRng& order_rng, double seconds,
                               bool by_pass, HostSpeed& speed, Result& out) {
  std::vector<Iteration> its;
  const int64_t end = now_ns() + static_cast<int64_t>(seconds * 1e9);
  while (now_ns() < end || its.empty()) {
    its.push_back(iterate(ref, topts, order_rng, by_pass, out));
    its.back().scale = speed.sample();
  }
  return its;
}

template <class F>
std::vector<double> collect(const std::vector<Iteration>& its, F f) {
  std::vector<double> v;
  for (const auto& it : its) v.push_back(f(it));
  return v;
}

}  // namespace

void run_offline(const RunConfig& cfg, Result& out) {
  TunerOptions topts;
  topts.seed = derive_seed(cfg.seed, "tuner");
  // One worker: on a loaded shared VM the tuner's worker pool made tuning
  // slower and its time spread twice as wide.
  topts.workers = 1;

  HostSpeed speed;
  std::vector<double> setup_s;
  Reference ref;
  for (int i = 0; i < kSetups; ++i) {
    const CpuTimer cpu;
    Reference r = set_up(cfg.seed, topts, out);
    const double s = cpu.us() / 1e6;
    setup_s.push_back(s * speed.sample());
    if (i == 0)
      ref = std::move(r);
    else if (!(r == ref))
      out.mismatch("check", "set-up " + std::to_string(i) +
                                " differs from set-up 0");
  }
  out.host().set("tuner_seed", std::to_string(topts.seed));
  out.host().set("tuner_trials", topts.max_trials);

  SeedRng order_rng(derive_seed(cfg.seed, "compile-order"));
  // Untraced iterations; with --trace 1 only the first half of the time,
  // the second half repeats them traced.
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const std::vector<Iteration> its =
      measure(ref, topts, order_rng, untraced_s, false, speed, out);
  if (!cfg.trace) {
    EndToEnd e;
    e.windows.resize(std::min<size_t>(kWindows, its.size()));
    e.limit_us = kIterationLimitUs;
    for (size_t k = 0; k < its.size(); ++k) {
      const Iteration& i = its[k];
      const double us = i.latency_us() * i.scale;
      Window& w = e.windows[k * e.windows.size() / its.size()];
      if (i.ok) w.latency_us.push_back(us);
      ++w.attempted;
      w.seconds += us / 1e6;
    }
    e.setup_s = setup_s;
    e.rss_mb = peak_rss_mb(getpid());
    out.host().set("probe_us_median", speed.median_probe_us());
    out.host().set("probes", speed.samples());
    report_end_to_end(e, out);
    const double raw_p50 =
        percentile(collect(its, [](auto& i) { return i.latency_us(); }), 50);
    out.note("times scaled to the reference host by the probe after each "
             "iteration and set-up (see calibrate.h); unscaled median "
             "iteration " + std::to_string(raw_p50) + " us");
    return;
  }

  // --- traced half -------------------------------------------------------
  const Summary lat = summarize(collect(its, [](auto& i) {
    return i.latency_us();
  }));
  set_tracing(true);
  const std::vector<Iteration> traced =
      measure(ref, topts, order_rng, cfg.seconds / 2, true, speed, out);
  set_tracing(false);
  const Summary tlat = summarize(collect(traced, [](auto& i) {
    return i.latency_us();
  }));

  const auto compile_ms = collect(its, [](auto& i) { return i.compile_us / 1e3; });
  const auto tune_ms = collect(its, [](auto& i) { return i.tune_us / 1e3; });
  out.set("suite_compile_ms_p50", percentile(compile_ms, 50), its.size());
  out.set("suite_compile_ms_p90", percentile(compile_ms, 90), its.size());
  out.set("suite_tune_ms_p50", percentile(tune_ms, 50), its.size());
  out.set("suite_tune_ms_p90", percentile(tune_ms, 90), its.size());
  out.set("tuned_speedup_geomean", geomean(its.front().speedups),
          its.front().speedups.size());

  PassTimes ir_bytes;
  for (const Benchmark& b : ref.benches)
    for (FlattenMode m : kModes) compile_by_pass(b, m, nullptr, &ir_bytes);
  for (const char* p : {"fusion", "normalize", "moderate", "incremental",
                        "full", "prune-segbinds", "tiling", "plan-build"}) {
    const auto ms = collect(traced, [p](const Iteration& i) {
      auto f = i.pass_ms.find(p);
      return f == i.pass_ms.end() ? 0.0 : f->second;
    });
    out.set(std::string("pass.") + p + ".ms", percentile(ms, 50), ms.size());
    out.set(std::string("pass.") + p + ".ir_bytes", ir_bytes[p], 1);
  }

  double kernels = 0, guards = 0, nodes = 0;
  for (const Benchmark& b : ref.benches)
    for (FlattenMode m : kModes) {
      const Compiled c = compile(b.program, m, options_for(b, m));
      kernels += static_cast<double>(c.plan->kernels.size());
      guards += static_cast<double>(c.plan->guards.size());
      nodes += static_cast<double>(c.plan->arena.size());
    }
  out.set("plan.kernels", kernels, 30);
  out.set("plan.guards", guards, 30);
  out.set("plan.arena_nodes", nodes, 30);
  std::vector<double> est;
  for (const auto& i : traced)
    est.insert(est.end(), i.estimate_us.begin(), i.estimate_us.end());
  out.set("plan.estimate_us", percentile(est, 50), est.size());

  const Iteration& first = its.front();
  out.set("autotune.trials", static_cast<double>(first.trials), 20);
  out.set("autotune.evaluations", static_cast<double>(first.evaluations), 20);
  out.set("autotune.dedup_ratio",
          static_cast<double>(first.dedup_hits) /
              static_cast<double>(std::max<int64_t>(1, first.trials)),
          20);
  const auto per_eval = collect(its, [](const Iteration& i) {
    return i.tune_us / static_cast<double>(std::max<int64_t>(1, i.evaluations));
  });
  out.set("autotune.us_per_eval", percentile(per_eval, 50), per_eval.size());
  out.set("trace.overhead_pct", (tlat.p50 / lat.p50 - 1) * 100, tlat.n);
}

}  // namespace perfbench
