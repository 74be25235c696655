#include "calibrate.h"

#include <time.h>

#include <cstdint>
#include <map>

#include "stats.h"

namespace perfbench {
namespace {
// Keeps the probe's results observable so it is not optimised away.
volatile uint64_t g_probe_sink = 0;
}  // namespace

int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double probe_us() {
  const CpuTimer timer;
  SeedRng rng(0x9b0be5eedull);
  std::map<uint64_t, uint64_t> m;
  for (uint64_t i = 0; i < 10000; ++i) m[rng.next() % 50000] = i;
  uint64_t acc = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto it = m.find(rng.next() % 50000);
    if (it != m.end()) acc += it->second;
  }
  for (int i = 0; i < 1'000'000; ++i) acc += rng.next() >> 60;
  g_probe_sink = acc;
  return timer.us();
}

double HostSpeed::median_probe_us() const { return percentile(probes_, 50); }

double HostSpeed::sample() {
  probes_.push_back(probe_us());
  return kReferenceProbeUs / probes_.back();
}

}  // namespace perfbench
