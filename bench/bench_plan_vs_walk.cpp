// Plan layer vs reference IR walker: cost-evaluation throughput.
//
// For LocVolCalib and matmul, times the stochastic autotuner on the
// compile-once KernelPlan, and raw cost evaluations in a tight loop through
// both back ends: plan_cost over per-dataset caches, and tuning_cost, the
// same weighted sum priced by the IR walker (gpusim::estimate_run).  Costs
// must agree bit for bit: the tuner's reported best and default costs equal
// tuning_cost under the same assignments, and so does the raw plan sum.
// Results go to BENCH_plan.json.
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/flatten/flatten.h"
#include "src/plan/plan.h"
#include "src/support/json.h"
#include "src/support/str.h"

namespace incflat {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  std::string name;
  double plan_tune_s = 0;
  int evaluations = 0;
  double plan_evals_per_s = 0;
  double raw_plan_evals_per_s = 0;
  double raw_walk_evals_per_s = 0;
  bool costs_match = false;
};

Row measure(const std::string& name) {
  const Benchmark b = get_benchmark(name);
  const DeviceProfile dev = device_k40();
  const Compiled compiled = compile(b.program, FlattenMode::Incremental);
  const FlattenResult& inc = compiled.flat;
  const KernelPlan& plan = *compiled.plan;
  std::vector<TuningDataset> train;
  for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});

  Row r;
  r.name = name;

  auto t0 = std::chrono::steady_clock::now();
  const TuningReport rep = autotune(dev, plan, inc.thresholds, train);
  r.plan_tune_s = seconds_since(t0);
  r.evaluations = rep.evaluations;
  r.plan_evals_per_s = r.evaluations / r.plan_tune_s;

  // Raw back-to-back cost evaluations, outside the tuner (no dedup, no
  // search overhead): the per-candidate cost of each back end.
  std::vector<PlanDatasetCache> caches;
  for (const auto& d : train) caches.emplace_back(plan, dev, d.sizes);
  const ThresholdEnv thr;
  double raw_plan = 0;
  for (size_t j = 0; j < caches.size(); ++j) {
    raw_plan += train[j].weight * plan_cost(plan, caches[j], thr);
  }
  r.costs_match =
      rep.best_cost_us == tuning_cost(dev, inc.program, train, rep.best) &&
      rep.default_cost_us == tuning_cost(dev, inc.program, train, {}) &&
      raw_plan == tuning_cost(dev, inc.program, train, thr);

  const int raw_iters = 2000;
  t0 = std::chrono::steady_clock::now();
  double sink = 0;
  for (int i = 0; i < raw_iters; ++i) {
    for (size_t j = 0; j < caches.size(); ++j) {
      sink += train[j].weight * plan_cost(plan, caches[j], thr);
    }
  }
  r.raw_plan_evals_per_s = raw_iters / seconds_since(t0);

  const int raw_walk_iters = 200;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < raw_walk_iters; ++i) {
    sink += tuning_cost(dev, inc.program, train, thr);
  }
  r.raw_walk_evals_per_s = raw_walk_iters / seconds_since(t0);
  if (sink < 0) std::cout << "";  // keep the loops observable

  return r;
}

int run() {
  Json out = Json::array();
  bool all_match = true;
  bool fast_enough = true;
  std::cout << "=== Autotuner evaluation throughput: kernel plan vs IR walk "
               "===\n";
  for (const std::string name : {"LocVolCalib", "matmul"}) {
    const Row r = measure(name);
    const double raw_speedup = r.raw_plan_evals_per_s / r.raw_walk_evals_per_s;
    std::cout << "\n" << r.name << ":\n"
              << "  tuner (" << r.evaluations << " evaluations): "
              << fmt_double(r.plan_tune_s * 1e3, 1) << " ms ("
              << fmt_double(r.plan_evals_per_s, 0) << " evals/s)\n"
              << "  raw cost eval: plan "
              << fmt_double(r.raw_plan_evals_per_s, 0) << "/s, walker "
              << fmt_double(r.raw_walk_evals_per_s, 0) << "/s -> "
              << fmt_double(raw_speedup, 1) << "x\n"
              << "  costs bit-identical: " << (r.costs_match ? "yes" : "NO")
              << "\n";
    all_match &= r.costs_match;
    fast_enough &= raw_speedup >= 5.0;
    out.push(Json::object()
                 .set("benchmark", r.name)
                 .set("evaluations", r.evaluations)
                 .set("plan_tune_s", r.plan_tune_s)
                 .set("plan_evals_per_s", r.plan_evals_per_s)
                 .set("raw_plan_evals_per_s", r.raw_plan_evals_per_s)
                 .set("raw_walk_evals_per_s", r.raw_walk_evals_per_s)
                 .set("raw_eval_speedup", raw_speedup)
                 .set("costs_match", r.costs_match));
  }
  if (std::ofstream jf("BENCH_plan.json"); jf) {
    jf << out.str() << "\n";
    std::cout << "\nraw results written to BENCH_plan.json\n";
  }
  std::cout << (all_match ? "[PASS]" : "[FAIL]")
            << " plan costs match the IR walker\n"
            << (fast_enough ? "[PASS]" : "[FAIL]")
            << " plan evaluations at least 5x faster than IR walks\n";
  return all_match && fast_enough ? 0 : 1;
}

}  // namespace
}  // namespace incflat

int main() { return incflat::run(); }
