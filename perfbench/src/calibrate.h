// Host-speed calibration for the offline workload.
//
// The benchmark runs on shared virtual machines whose speed drifts by up to
// 2x over minutes as co-tenants come and go.  Two measures keep the
// offline figures steady:
//
// - Offline work is timed in process CPU time, which on kernels with
//   paravirtual steal accounting excludes the time the hypervisor gave the
//   CPU to other guests.  It counts the work of every thread of the
//   process, so work the program under test moves onto other threads stays
//   counted; the benchmark's own side of offline runs on one thread.
// - What remains — co-tenants slowing the shared caches and memory — slows
//   compiling and tuning the suite and a fixed allocation-heavy probe
//   alike, and comes in bursts of a few tens of milliseconds.  So each
//   offline run times the probe, the benchmark's own code and independent
//   of the program under test, right after every iteration and every
//   set-up, and scales that iteration's or set-up's time to a reference
//   host:
//
//     scaled = measured * kReferenceProbeUs / probe time right after it
//
//   On a loaded 4-vCPU VM this took the spread (IQR/median) over six runs
//   of the per-run p90 iteration time from 16% (one scale per run, from
//   the median probe) to 8%, and of the p50 from 5% to 4%.
//
// The unscaled median iteration time is noted beside the scaled metrics.
// The serve workloads use neither: their latency is wall time dominated by
// thread wake-ups, which the probe does not track; they scale by a socket
// round trip instead (serve.cpp, kReferenceRttUs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Probe time (us) that maps to a scale factor of 1, about the probe's time
/// on a 4-vCPU Xeon VM.  Only sets the scale of the scaled metrics.
constexpr double kReferenceProbeUs = 6000;

/// CPU time of this process, all threads, in nanoseconds.
int64_t process_cpu_ns();

/// Process-CPU-time stopwatch, started on construction.
class CpuTimer {
 public:
  CpuTimer() : t0_(process_cpu_ns()) {}
  double us() const {
    return static_cast<double>(process_cpu_ns() - t0_) / 1e3;
  }

 private:
  int64_t t0_;
};

/// CPU time of one run of the fixed probe (ordered-map inserts and
/// lookups over seeded keys plus an integer hash loop), in microseconds.
double probe_us();

/// Collects probe times through a run.
class HostSpeed {
 public:
  /// Run the probe once, keep its time and return the factor that scales
  /// a time measured just before to the reference host:
  /// kReferenceProbeUs / probe time.
  double sample();
  double median_probe_us() const;
  size_t samples() const { return probes_.size(); }

 private:
  std::vector<double> probes_;
};

}  // namespace perfbench
