// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload offline|serve_hot|serve_churn --seed N
//             --seconds S --trace 0|1 --daemon PATH --out-dir DIR
//             [--source-id ID]
//   perfbench --list-metrics
//
// Prints a human-readable report and, as its last stdout line, the JSON
// result {"correct", "attempted", "failed", "metrics"}.  The full record
// (host block, op tallies, every metric with its sample count) and, for
// traced runs, the spans go to DIR.  Exit codes: 0 measured, 1 aborted
// (protocol violation, daemon failure), 2 usage error.
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "spans.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload offline|serve_hot|serve_churn "
               "--seed N --seconds S --trace 0|1 --daemon PATH --out-dir DIR "
               "[--source-id ID]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

void list_metrics() {
  for (const auto& m : end_to_end_metrics())
    std::printf("end_to_end %s %s\n", m.name, m.unit);
  for (const auto& m : per_layer_metrics())
    std::printf("per_layer %s %s\n", m.name, m.unit);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_layer_self_times(const std::vector<SpanRecord>& spans) {
  std::printf("%-28s %10s %12s %12s\n", "span (layer)", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : layer_times(spans))
    std::printf("%-28s %10lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(t.count), t.total_ms, t.self_ms);
  if (dropped_spans() > 0)
    std::printf("(%lld spans dropped: in-memory budget full)\n",
                static_cast<long long>(dropped_spans()));
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end && *end == '\0' && cfg.seconds > 0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      cfg.trace = v == "1";
    } else if (a == "--daemon") {
      cfg.daemon = v;
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else if (a == "--source-id") {
      source_id = v;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace || cfg.out_dir.empty())
    return usage();
  void (*run)(const RunConfig&, Result&) = nullptr;
  if (cfg.workload == "offline") run = run_offline;
  if (cfg.workload == "serve_hot") run = run_serve_hot;
  if (cfg.workload == "serve_churn") run = run_serve_churn;
  if (!run) return usage();
  if (cfg.workload != "offline" && cfg.daemon.empty()) return usage();
  mkdir(cfg.out_dir.c_str(), 0755);

  Result out;
  incflat::Json& host = out.host();
  host.set("workload", cfg.workload);
  host.set("seed", std::to_string(cfg.seed));
  host.set("seconds", cfg.seconds);
  host.set("trace", cfg.trace);
  host.set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  host.set("loadavg_before", loadavg());
  const CpuTicks ticks_before = cpu_ticks();
  host.set("compiler", compiler());
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  host.set("source_id", source_id);
  utsname u{};
  if (uname(&u) == 0)
    host.set("kernel", std::string(u.sysname) + " " + u.release);

  try {
    run(cfg, out);
  } catch (const ProtocolViolation& e) {
    std::fprintf(stderr, "perfbench: protocol violation, run aborted: %s\n",
                 e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }
  host.set("loadavg_after", loadavg());
  const CpuTicks ticks_after = cpu_ticks();
  if (ticks_after.total > ticks_before.total)
    host.set("steal_frac", (ticks_after.steal - ticks_before.steal) /
                               (ticks_after.total - ticks_before.total));
  if (!cfg.trace && out.attempted() > 0)
    out.set("succeeded_frac",
            static_cast<double>(out.attempted() - out.failed()) /
                static_cast<double>(out.attempted()),
            static_cast<size_t>(out.attempted()));

  if (cfg.trace) {
    // Layers this workload does not exercise read 0 with n=0.
    for (const auto& m : per_layer_metrics())
      if (!out.has(m.name)) out.set(m.name, 0, 0);
    const std::vector<SpanRecord> spans = collected_spans();
    print_layer_self_times(spans);
    // One file per workload, the latest traced run's: a serve run records
    // hundreds of thousands of spans.
    const std::string path = cfg.out_dir + "/spans-" + cfg.workload + ".json";
    if (!write_spans(path, spans))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  const std::string rec_path = cfg.out_dir + "/result-" + cfg.workload + "-" +
                               std::to_string(cfg.seed) + "-trace" +
                               (cfg.trace ? "1" : "0") + ".json";
  std::ofstream(rec_path) << out.record(cfg.trace).str(2) << "\n";
  return out.print(stdout, cfg.trace) ? 0 : 1;
}
