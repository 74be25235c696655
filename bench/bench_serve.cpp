// Compile-and-serve daemon: plan-cache effectiveness and serving latency.
//
// Exercises ServerCore (the transport-independent daemon core) exactly as
// incflatd does, minus the socket: every request goes through the length-
// prefixed protocol's text path (handle_text), so JSON parse and response
// formatting are part of every measured latency.  Three phases:
//
//   1. Cold vs warm compile.  Each benchmark's first compile pays the full
//      flattening pipeline; repeats are plan-cache hits.  Gate: warm serving
//      is >= 50x faster than cold in aggregate across the suite.
//   2. Bit-identity.  A cache-served plan must answer run requests with the
//      same estimate and the same kernel launches as a freshly compiled
//      plan on a fresh core — the cache can never change results.  A served
//      tune (every benchmark x device) must return the thresholds and
//      best_cost_us that offline autotune finds on the same KernelPlan.
//   3. Mixed load.  16 concurrent clients with zipfian key skew issue a
//      run/compile/stats mix against one core; reports throughput and
//      p50/p95/p99 per op, and requires zero failed responses with a sane
//      run-latency tail.
//
// Results go to BENCH_serve.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/autotune/autotune.h"
#include "src/benchsuite/benchmark.h"
#include "src/exec/exec.h"
#include "src/gpusim/device.h"
#include "src/serve/server.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/support/str.h"

namespace incflat {
namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double pct(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1,
                    static_cast<size_t>(p / 100.0 *
                                        static_cast<double>(v.size())))];
}

std::string compile_req(const std::string& bench) {
  Json r = Json::object();
  r.set("op", "compile");
  r.set("benchmark", bench);
  return r.str(-1);
}

std::string run_req(const std::string& bench, const std::string& dataset) {
  Json r = Json::object();
  r.set("op", "run");
  r.set("benchmark", bench);
  r.set("dataset", dataset);
  return r.str(-1);
}

/// One timed round trip through the daemon core's text path.
Json call(serve::ServerCore& core, const std::string& req, double* us) {
  const double t0 = now_us();
  const std::string resp = core.handle_text(req);
  if (us) *us = now_us() - t0;
  return Json::parse(resp);
}

struct CompileRow {
  std::string benchmark;
  double cold_us = 0;
  double warm_us = 0;  // median of the warm repeats
  double ratio = 0;
};

int run_bench() {
  std::cout << "=== Compile-and-serve: plan cache, bit-identity, "
               "mixed load ===\n";
  serve::ServeOptions opts;
  serve::ServerCore core(opts);
  const std::vector<std::string> names = all_benchmark_names();

  // -- Phase 1: cold vs warm compile ---------------------------------------
  std::vector<CompileRow> compiles;
  double cold_total = 0, warm_total = 0;
  for (const std::string& name : names) {
    CompileRow row;
    row.benchmark = name;
    const std::string req = compile_req(name);
    Json resp = call(core, req, &row.cold_us);
    if (!resp.get("ok").as_bool() || resp.get("cached").as_bool()) {
      std::cout << "[FAIL] first compile of " << name
                << " was not a clean cache miss\n";
      return 1;
    }
    std::vector<double> warm;
    for (int i = 0; i < 50; ++i) {
      double us = 0;
      resp = call(core, req, &us);
      if (!resp.get("ok").as_bool() || !resp.get("cached").as_bool()) {
        std::cout << "[FAIL] warm compile of " << name << " missed\n";
        return 1;
      }
      warm.push_back(us);
    }
    row.warm_us = pct(warm, 50);
    row.ratio = row.warm_us > 0 ? row.cold_us / row.warm_us : 0;
    cold_total += row.cold_us;
    warm_total += row.warm_us;
    compiles.push_back(row);
    std::cout << "  " << name << ": cold " << fmt_double(row.cold_us, 0)
              << " us, warm " << fmt_double(row.warm_us, 1) << " us -> "
              << fmt_double(row.ratio, 0) << "x\n";
  }
  const double agg_ratio = warm_total > 0 ? cold_total / warm_total : 0;
  std::cout << "  aggregate: cold " << fmt_double(cold_total, 0)
            << " us vs warm " << fmt_double(warm_total, 1) << " us -> "
            << fmt_double(agg_ratio, 0) << "x\n";

  // -- Phase 2: cache-served plans are bit-identical -----------------------
  int checked = 0, identical = 0;
  Json identity_rows = Json::array();
  for (const std::string& name : names) {
    const Benchmark b = get_benchmark(name);
    for (const auto& d : b.datasets) {
      const std::string req = run_req(name, d.name);
      // Twice on the shared (warm) core: the second is fully cache-served.
      Json first = call(core, req, nullptr);
      Json served = call(core, req, nullptr);
      // Once on a brand-new core: nothing cached anywhere.
      serve::ServerCore fresh(opts);
      Json scratch = call(fresh, req, nullptr);
      ++checked;
      const bool ok = first.get("ok").as_bool() &&
                      served.get("ok").as_bool() &&
                      scratch.get("ok").as_bool();
      const bool same =
          ok &&
          served.get("estimate_us").as_double() ==
              scratch.get("estimate_us").as_double() &&
          served.get("kernel_launches").as_double() ==
              scratch.get("kernel_launches").as_double() &&
          first.get("estimate_us").as_double() ==
              served.get("estimate_us").as_double();
      if (same) ++identical;
      else
        std::cout << "  MISMATCH " << name << "/" << d.name << ": served "
                  << (ok ? served.get("estimate_us").as_double() : -1)
                  << " vs fresh "
                  << (ok ? scratch.get("estimate_us").as_double() : -1)
                  << "\n";
      identity_rows.push(Json::object()
                             .set("op", "run")
                             .set("benchmark", name)
                             .set("dataset", d.name)
                             .set("identical", same));
    }
  }
  const int run_checked = checked;

  // A served tune must equal offline autotune on the same KernelPlan: the
  // daemon tunes its cache entry's plan with its own options (trial count,
  // measurement seed, one worker), the twin tunes a fresh compile's plan
  // with the same options.  Thresholds and best_cost_us bits must match.
  for (const std::string& name : names) {
    const Benchmark b = get_benchmark(name);
    const Compiled c = compile(b.program, FlattenMode::Incremental);
    std::vector<TuningDataset> train;
    for (const auto& d : b.tuning) train.push_back({d.name, d.sizes, 1.0});
    for (const DeviceProfile& dev : {device_k40(), device_vega64()}) {
      TunerOptions topts;
      topts.max_trials = opts.tune_trials;
      topts.measure_seed = opts.fault_seed;
      const TuningReport offline =
          autotune(dev, *c.plan, c.flat.thresholds, train, topts);
      Json req = Json::object();
      req.set("op", "tune").set("benchmark", name).set("device", dev.name);
      const Json served = call(core, req.str(-1), nullptr);
      ++checked;
      bool same = served.get("ok").as_bool() &&
                  served.get("best_cost_us").as_double() ==
                      offline.best_cost_us;
      if (same) {
        const Json& thr = served.get("thresholds");
        same = thr.size() == offline.best.values.size();
        for (const auto& [k, v] : offline.best.values) {
          const Json* t = thr.find(k);
          same = same && t && t->as_double() == static_cast<double>(v);
        }
      }
      if (same) ++identical;
      else
        std::cout << "  MISMATCH tune " << name << "/" << dev.name << "\n";
      identity_rows.push(Json::object()
                             .set("op", "tune")
                             .set("benchmark", name)
                             .set("device", dev.name)
                             .set("identical", same));
    }
  }
  std::cout << "  bit-identity: " << identical << "/" << checked << " ("
            << run_checked << " cache-served runs match a fresh compile, "
            << checked - run_checked
            << " served tunes match offline autotune)\n";

  // -- Phase 3: 16 concurrent clients, zipfian key skew --------------------
  struct Key {
    std::string bench, dataset;
  };
  std::vector<Key> keys;
  for (const std::string& name : names) {
    const Benchmark b = get_benchmark(name);
    for (const auto& d : b.datasets) keys.push_back({name, d.name});
  }
  std::vector<double> cdf(keys.size());
  double acc = 0;
  for (size_t k = 0; k < keys.size(); ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    cdf[k] = acc;
  }
  for (double& c : cdf) c /= acc;

  const int kClients = 16;
  const int kPerClient = 150;
  std::atomic<int64_t> failed{0};
  std::mutex agg_mu;
  std::map<std::string, std::vector<double>> lat;
  const double t0 = now_us();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(0xbe7c + static_cast<uint64_t>(c) * 0x9e3779b97f4a7c15ULL);
        std::map<std::string, std::vector<double>> local;
        for (int r = 0; r < kPerClient; ++r) {
          const double u = rng.uniform();
          const std::string op =
              u < 0.85 ? "run" : (u < 0.95 ? "compile" : "stats");
          const size_t rank = static_cast<size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), rng.uniform()) -
              cdf.begin());
          const Key& key = keys[std::min(rank, keys.size() - 1)];
          std::string req;
          if (op == "run") req = run_req(key.bench, key.dataset);
          else if (op == "compile") req = compile_req(key.bench);
          else req = "{\"op\":\"stats\"}";
          double us = 0;
          Json resp = call(core, req, &us);
          const Json* ok = resp.find("ok");
          if (!ok || !ok->is_bool() || !ok->as_bool()) ++failed;
          local[op].push_back(us);
        }
        std::lock_guard<std::mutex> lk(agg_mu);
        for (auto& [op, v] : local) {
          auto& dst = lat[op];
          dst.insert(dst.end(), v.begin(), v.end());
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double wall_us = now_us() - t0;
  int64_t total = 0;
  for (auto& [op, v] : lat) total += static_cast<int64_t>(v.size());
  const double rps = static_cast<double>(total) / (wall_us / 1e6);
  const serve::RequestStats rstats = core.request_stats();
  const serve::CacheStats cstats = core.cache().stats();

  Json load_ops = Json::object();
  double run_p99 = 0;
  std::cout << "  mixed load: " << total << " requests, " << kClients
            << " clients, " << fmt_double(wall_us / 1000.0, 1) << " ms ("
            << fmt_double(rps, 0) << " req/s), " << rstats.batches
            << " batches covering " << rstats.batched_runs << " runs\n";
  for (auto& [op, v] : lat) {
    Json o = Json::object();
    o.set("n", v.size());
    o.set("p50_us", pct(v, 50));
    o.set("p95_us", pct(v, 95));
    o.set("p99_us", pct(v, 99));
    if (op == "run") run_p99 = pct(v, 99);
    std::cout << "    " << op << ": n=" << v.size() << " p50="
              << fmt_double(pct(v, 50), 1) << "us p95="
              << fmt_double(pct(v, 95), 1) << "us p99="
              << fmt_double(pct(v, 99), 1) << "us\n";
    load_ops.set(op, o);
  }

  // -- Report + gates ------------------------------------------------------
  Json out = Json::object();
  Json compile_rows = Json::array();
  for (const CompileRow& r : compiles)
    compile_rows.push(Json::object()
                          .set("benchmark", r.benchmark)
                          .set("cold_us", r.cold_us)
                          .set("warm_us", r.warm_us)
                          .set("ratio", r.ratio));
  out.set("compile", compile_rows);
  out.set("compile_aggregate", Json::object()
                                   .set("cold_us", cold_total)
                                   .set("warm_us", warm_total)
                                   .set("ratio", agg_ratio));
  out.set("identity",
          Json::object().set("checked", checked).set("identical", identical));
  out.set("identity_rows", identity_rows);
  out.set("load", Json::object()
                      .set("clients", kClients)
                      .set("requests_per_client", kPerClient)
                      .set("zipf", 1.1)
                      .set("total", total)
                      .set("wall_ms", wall_us / 1000.0)
                      .set("throughput_rps", rps)
                      .set("failed", failed.load())
                      .set("batches", rstats.batches)
                      .set("batched_runs", rstats.batched_runs)
                      .set("cache_hits", cstats.hits)
                      .set("cache_misses", cstats.misses)
                      .set("ops", load_ops));
  if (std::ofstream jf("BENCH_serve.json"); jf) {
    jf << out.str() << "\n";
    std::cout << "raw results written to BENCH_serve.json\n";
  }

  const bool gate_warm = agg_ratio >= 50.0;
  const bool gate_ident = checked > 0 && identical == checked;
  const bool gate_load = failed.load() == 0 && run_p99 < 250000.0;
  std::cout << (gate_warm ? "[PASS]" : "[FAIL]")
            << " warm compile >= 50x faster than cold in aggregate ("
            << fmt_double(agg_ratio, 0) << "x)\n"
            << (gate_ident ? "[PASS]" : "[FAIL]")
            << " cache-served runs and served tunes bit-identical to offline ("
            << identical << "/" << checked << ")\n"
            << (gate_load ? "[PASS]" : "[FAIL]")
            << " zero failed responses and run p99 < 250 ms under mixed "
               "16-client zipfian load (failed="
            << failed.load() << ", p99=" << fmt_double(run_p99 / 1000.0, 1)
            << " ms)\n";
  return gate_warm && gate_ident && gate_load ? 0 : 1;
}

}  // namespace
}  // namespace incflat

int main() { return incflat::run_bench(); }
