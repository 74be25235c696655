#include "report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "stats.h"

namespace perfbench {

using incflat::Json;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"latency_us_p50", "us"},   {"latency_us_tail", "us"},
      {"throughput_per_s", "1/s"}, {"slo_met_frac", "frac"},
      {"succeeded_frac", "frac"}, {"setup_s", "s"},
      {"rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // offline phases
      {"suite_compile_ms_p50", "ms"},
      {"suite_compile_ms_p90", "ms"},
      {"suite_tune_ms_p50", "ms"},
      {"suite_tune_ms_p90", "ms"},
      {"tuned_speedup_geomean", "x"},
      // served ops, by kind
      {"run_us_p50", "us"},
      {"run_us_p99", "us"},
      {"run_rps", "1/s"},
      {"compile_us_p50", "us"},
      {"compile_us_p99", "us"},
      // pass
      {"pass.fusion.ms", "ms"},
      {"pass.normalize.ms", "ms"},
      {"pass.moderate.ms", "ms"},
      {"pass.incremental.ms", "ms"},
      {"pass.full.ms", "ms"},
      {"pass.prune-segbinds.ms", "ms"},
      {"pass.tiling.ms", "ms"},
      {"pass.plan-build.ms", "ms"},
      {"pass.fusion.ir_bytes", "bytes"},
      {"pass.normalize.ir_bytes", "bytes"},
      {"pass.moderate.ir_bytes", "bytes"},
      {"pass.incremental.ir_bytes", "bytes"},
      {"pass.full.ir_bytes", "bytes"},
      {"pass.prune-segbinds.ir_bytes", "bytes"},
      {"pass.tiling.ir_bytes", "bytes"},
      {"pass.plan-build.ir_bytes", "bytes"},
      // plan
      {"plan.kernels", "count"},
      {"plan.guards", "count"},
      {"plan.arena_nodes", "count"},
      {"plan.estimate_us", "us"},
      // autotune
      {"autotune.trials", "count"},
      {"autotune.evaluations", "count"},
      {"autotune.dedup_ratio", "frac"},
      {"autotune.us_per_eval", "us"},
      // exec
      {"exec.tiered_run_us", "us"},
      {"exec.specialized_frac", "frac"},
      {"exec.deopts", "count"},
      // protocol, core, net
      {"protocol.parse_us", "us"},
      {"protocol.format_us", "us"},
      {"protocol.frame_us", "us"},
      {"core.handle_us", "us"},
      {"net.transport_us", "us"},
      {"net.raw_rtt_us", "us"},
      // plan cache, scheduler
      {"plan_cache.hit_ratio", "frac"},
      {"plan_cache.misses", "count"},
      {"plan_cache.evictions", "count"},
      {"scheduler.max_queue_depth", "count"},
      {"scheduler.shed", "count"},
      {"scheduler.expired", "count"},
      {"batch.runs_per_batch", "runs"},
      // validity of the measurement itself
      {"loadgen.late_us_p99", "us"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

void Result::set(const std::string& name, double value, size_t n) {
  values_[name] = {value, n};
}

void Result::mismatch(const std::string& kind, const std::string& what) {
  ++mismatches_;
  op(kind).fail("mismatch");
  if (mismatches_ <= 20) note("MISMATCH " + kind + ": " + what);
}

int64_t Result::attempted() const {
  int64_t n = 0;
  for (const auto& [k, t] : ops_) n += t.attempted;
  return n;
}

int64_t Result::failed() const {
  int64_t n = 0;
  for (const auto& [k, t] : ops_) n += t.failed;
  return n;
}

Json Result::record(bool trace) const {
  Json metrics = Json::object();
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& d : *defs) {
      auto it = values_.find(d.name);
      if (it == values_.end()) continue;
      Json m = Json::object();
      m.set("value", it->second.value);
      m.set("unit", d.unit);
      m.set("n", it->second.n);
      metrics.set(d.name, m);
    }
  }
  Json ops = Json::object();
  for (const auto& [kind, t] : ops_) {
    Json o = Json::object();
    o.set("attempted", t.attempted);
    o.set("succeeded", t.succeeded);
    o.set("failed", t.failed);
    Json causes = Json::object();
    for (const auto& [c, n] : t.causes) causes.set(c, n);
    o.set("failures", causes);
    ops.set(kind, o);
  }
  Json notes = Json::array();
  for (const auto& n : notes_) notes.push(n);
  Json r = Json::object();
  r.set("trace", trace);
  r.set("host", host_);
  r.set("ops", ops);
  r.set("mismatches", mismatches_);
  r.set("metrics", metrics);
  r.set("notes", notes);
  return r;
}

bool Result::print(FILE* out, bool trace) const {
  const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
  std::fprintf(out, "%-30s %16s  %-6s %s\n", "metric", "value", "unit", "n");
  bool complete = true;
  Json metrics = Json::object();
  for (const auto& d : defs) {
    auto it = values_.find(d.name);
    if (it == values_.end()) {
      std::fprintf(out, "%-30s %16s  %-6s (missing)\n", d.name, "-", d.unit);
      complete = false;
      continue;
    }
    std::fprintf(out, "%-30s %16.6g  %-6s n=%zu\n", d.name, it->second.value,
                 d.unit, it->second.n);
    Json m = Json::object();
    m.set("value", it->second.value);
    m.set("unit", d.unit);
    metrics.set(d.name, m);
  }
  for (const auto& [kind, t] : ops_) {
    std::fprintf(out, "op %-12s attempted=%lld succeeded=%lld failed=%lld",
                 kind.c_str(), static_cast<long long>(t.attempted),
                 static_cast<long long>(t.succeeded),
                 static_cast<long long>(t.failed));
    for (const auto& [c, n] : t.causes)
      std::fprintf(out, " %s=%lld", c.c_str(), static_cast<long long>(n));
    std::fputc('\n', out);
  }
  for (const auto& n : notes_) std::fprintf(out, "note: %s\n", n.c_str());
  std::fprintf(out, "host: %s\n", host_.str(-1).c_str());

  Json line = Json::object();
  line.set("correct", mismatches_ == 0 && complete);
  line.set("attempted", attempted());
  line.set("failed", failed());
  line.set("metrics", metrics);
  std::fprintf(out, "%s\n", line.str(-1).c_str());
  std::fflush(out);
  return complete;
}

void report_end_to_end(const EndToEnd& e, Result& out) {
  std::vector<const Window*> used;
  for (const auto& w : e.windows) used.push_back(&w);
  const bool calm = e.calm_share < 1;
  if (calm) {
    std::stable_sort(used.begin(), used.end(),
                     [](const Window* a, const Window* b) {
                       return a->steal < b->steal;
                     });
    used.resize(static_cast<size_t>(
        std::ceil(e.calm_share * static_cast<double>(used.size()))));
  }
  std::vector<double> p50s, tails;
  size_t answered = 0, attempted = 0, met = 0;
  double seconds = 0, steal = 0;
  for (const Window* w : used) {
    attempted += w->attempted;
    seconds += w->seconds;
    steal = std::max(steal, w->steal);
    if (w->latency_us.empty()) continue;
    p50s.push_back(percentile(w->latency_us, 50));
    tails.push_back(percentile(w->latency_us, kTailPercentile));
    answered += w->latency_us.size();
    for (double us : w->latency_us) met += us <= e.limit_us;
  }
  const double p50 = percentile(p50s, 50), tail = percentile(tails, 50);
  const double setup = percentile(e.setup_s, 50);
  const double rate = static_cast<double>(answered) / seconds;
  out.set("latency_us_p50", p50, answered);
  out.set("latency_us_tail", tail, answered);
  out.set("throughput_per_s", rate, answered);
  out.set("slo_met_frac",
          static_cast<double>(met) /
              static_cast<double>(std::max<size_t>(1, attempted)),
          attempted);
  out.set("setup_s", setup, e.setup_s.size());
  out.set("rss_mb", e.rss_mb, 1);
  std::ostringstream os;
  os << "latency_us_tail is p" << kTailPercentile << "; latencies are "
     << "medians over " << p50s.size() << " of " << e.windows.size()
     << " window(s)";
  if (calm) os << " (the least stolen; at most " << steal << " steal)";
  os << "; latency limit " << e.limit_us << " us";
  out.note(os.str());
}

double peak_rss_mb(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  double v = 0;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 10 && f >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

Json loadavg() {
  std::ifstream f("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  f >> a >> b >> c;
  Json j = Json::array();
  j.push(a);
  j.push(b);
  j.push(c);
  return j;
}

}  // namespace perfbench
